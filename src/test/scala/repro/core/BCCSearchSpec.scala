package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{GraphGen, QueryGen}
import repro.eval.Instrument

/** End-to-end properties of the three BCC search methods on planted
  * ground-truth graphs: structural validity of every answer, exact
  * agreement between Online-BCC and LP-BCC (the fast strategies are
  * exactness-preserving), the 2-approximation invariant, and the expected
  * instrumentation behaviour (LP-BCC calls Algorithm 3 far less).
  */
class BCCSearchSpec extends AnyFunSuite {

  private val planted = GraphGen.snapLike("amazon-lite")
  private val queries = QueryGen.queries2(planted, n = 12, seed = 5)

  test("query generator produced enough planted queries") {
    assert(queries.size == 12)
  }

  for ((q, i) <- queries.zipWithIndex) {
    test(s"query $i: Online-BCC answer is a valid BCC (or none exists)") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      OnlineBCC.run(planted.graph, q.ql, q.qr, params).foreach { res =>
        val errs = Model.violations(planted.graph, res.vertexIds, q.ql, q.qr, params)
        assert(errs.isEmpty, errs.mkString("; "))
        // Theorem 3 invariant: diam(O) <= 2 * dist_O(O, Q)
        assert(res.diameter <= 2 * res.queryDistance)
      }
    }

    test(s"query $i: LP-BCC returns exactly the Online-BCC community") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val a = OnlineBCC.run(planted.graph, q.ql, q.qr, params)
      val b = LPBCC.run(planted.graph, q.ql, q.qr, params)
      assert(a.map(_.vertexIds) == b.map(_.vertexIds))
      assert(a.map(_.queryDistance) == b.map(_.queryDistance))
    }

    test(s"query $i: L2P-BCC answer is a valid BCC when found") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val index = BCIndex.build(planted.graph)
      L2PBCC.run(planted.graph, q.ql, q.qr, params, index).foreach { res =>
        val errs = Model.violations(planted.graph, res.vertexIds, q.ql, q.qr, params)
        assert(errs.isEmpty, errs.mkString("; "))
      }
    }
  }

  test("LP-BCC performs no more butterfly counts than Online-BCC") {
    var online = 0
    var lp = 0
    for (q <- queries) {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val iO = new Instrument
      val iL = new Instrument
      OnlineBCC.run(planted.graph, q.ql, q.qr, params, iO, computeDiameter = false)
      LPBCC.run(planted.graph, q.ql, q.qr, params, iL, computeDiameter = false)
      online += iO.butterflyCountCalls
      lp += iL.butterflyCountCalls
    }
    assert(lp <= online)
    assert(lp < online, s"expected strictly fewer butterfly counts (lp=$lp online=$online)")
  }

  test("answers contain both query vertices and only the two query labels") {
    for (q <- queries.take(5)) {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      for (res <- OnlineBCC.run(planted.graph, q.ql, q.qr, params)) {
        assert(res.vertexIds.contains(q.ql) && res.vertexIds.contains(q.qr))
        val labs = res.vertexIds.map(id => planted.graph.labels(planted.graph.indexOf(id)))
        assert(labs == Set(res.leftLabel, res.rightLabel))
      }
    }
  }

  test("answer is a subset of the initial candidate G0") {
    for (q <- queries.take(5)) {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val g0 = LocalBCC.findG0(planted.graph, q.ql, q.qr, params)
      for {
        res <- OnlineBCC.run(planted.graph, q.ql, q.qr, params)
        cand <- g0
      } assert(res.vertexIds.subsetOf(cand.g0.ids.toSet))
    }
  }

  test("same-label query pair is rejected") {
    val g = planted.graph
    val c = planted.communities.head
    val Seq(a, b) = c.left.take(2).toSeq
    assert(OnlineBCC.run(g, a, b, BCCParams(1, 1, 1)).isEmpty)
  }

  test("unknown query vertex is rejected") {
    assert(OnlineBCC.run(planted.graph, -1L, queries.head.qr, BCCParams(1, 1, 1)).isEmpty)
  }

  test("search with b=0 still returns a community when cores exist") {
    val q = queries.head
    val res = OnlineBCC.run(planted.graph, q.ql, q.qr, BCCParams(1, 1, 0))
    assert(res.isDefined)
  }

  for (name <- Seq("dblp-lite", "youtube-lite")) {
    test(s"methods agree and validate on $name") {
      val p = GraphGen.snapLike(name)
      val qs = QueryGen.queries2(p, n = 4, seed = 9)
      for (q <- qs) {
        val params = LocalBCC.defaultParams(p.graph, q.ql, q.qr)
        val a = OnlineBCC.run(p.graph, q.ql, q.qr, params)
        val b = LPBCC.run(p.graph, q.ql, q.qr, params)
        assert(a.map(_.vertexIds) == b.map(_.vertexIds))
        a.foreach { res =>
          assert(Model.isValid(p.graph, res.vertexIds, q.ql, q.qr, params))
        }
      }
    }
  }

  test("a result reports its own rounds; a shared Instrument sums them") {
    val g = planted.graph
    val qs = queries.take(3)
    val methods = Seq[(QueryGen.Query2, Instrument) => Option[BCCResult]](
      (q, i) => OnlineBCC.run(g, q.ql, q.qr, LocalBCC.defaultParams(g, q.ql, q.qr), i, computeDiameter = false),
      (q, i) => LPBCC.run(g, q.ql, q.qr, LocalBCC.defaultParams(g, q.ql, q.qr), i, computeDiameter = false))
    for (run <- methods) {
      val fresh = qs.map(_ => new Instrument)
      val alone = qs.zip(fresh).map { case (q, i) => run(q, i).map(_.rounds) }
      val shared = new Instrument
      val together = qs.map(q => run(q, shared).map(_.rounds))
      assert(alone.flatten.size >= 2, "too few answers to compare rounds")
      assert(together == alone)
      assert(shared.rounds == fresh.map(_.rounds).sum)
    }
  }

  test("early exits still record their time") {
    // a fresh graph, so the early exit happens after the id map is built
    // inside the timed call
    def fresh = GraphGen.randomLabeled(200, 4.0, Seq("A", "B"), 8)
    val g = fresh
    val Seq(a1, a2) = (0 until g.n).filter(g.labels(_) == "A").take(2).map(g.ids)
    val i = new Instrument
    assert(L2PBCC.run(g, a1, a2, BCCParams(1, 1, 1), BCIndex.build(g), i).isEmpty)
    assert(i.totalNanos > 0, "same-label L2P query")
    val j = new Instrument
    assert(MultiBCC.run(fresh, Seq(-1L, a1), Seq(1, 1), 1, j).isEmpty)
    assert(j.totalNanos > 0, "unknown-id mBCC query")
  }
}
