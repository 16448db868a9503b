package repro.core

import repro.SparkSpec
import repro.data.{GraphGen, QueryGen}
import repro.graph.LabeledGraph

/** Integration: the distributed Algorithm 2 (DataFrame dataflow) must agree
  * exactly with the driver-side version, and the full Spark pipeline must
  * return the same communities as the local pipeline.
  */
class SparkPipelineSpec extends SparkSpec {

  private val planted = GraphGen.snapLike("amazon-lite")
  private val queries = QueryGen.queries2(planted, n = 3, seed = 77)
  private lazy val sparkGraph = LabeledGraph.fromLocal(spark, planted.graph).cached()

  test("paper Figure 1: distributed findG0 equals the published community") {
    val g = LabeledGraph.fromLocal(spark, PaperGraphs.figure1)
    val cand = FindG0.find(g, PaperGraphs.Fig1Ids.ql, PaperGraphs.Fig1Ids.qr, BCCParams(4, 3, 1))
    assert(cand.isDefined)
    assert(cand.get.g0.ids.toSet == PaperGraphs.figure2Community)
  }

  test("paper Figure 1: distributed chi matches local chi on the candidate") {
    val g = LabeledGraph.fromLocal(spark, PaperGraphs.figure1)
    val dCand = FindG0.find(g, PaperGraphs.Fig1Ids.ql, PaperGraphs.Fig1Ids.qr, BCCParams(4, 3, 1)).get
    val lCand = LocalBCC
      .findG0(PaperGraphs.figure1, PaperGraphs.Fig1Ids.ql, PaperGraphs.Fig1Ids.qr, BCCParams(4, 3, 1))
      .get
    val dChi = dCand.g0.ids.zip(dCand.chi).toMap
    val lChi = lCand.g0.ids.zip(lCand.chi).toMap
    assert(dChi == lChi)
  }

  for ((q, i) <- queries.zipWithIndex) {
    test(s"query $i: distributed findG0 vertex set equals local findG0") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val d = FindG0.find(sparkGraph, q.ql, q.qr, params)
      val l = LocalBCC.findG0(planted.graph, q.ql, q.qr, params)
      assert(d.map(_.g0.ids.toSet) == l.map(_.g0.ids.toSet))
    }

    test(s"query $i: runSpark community equals local run (Online)") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val d = OnlineBCC.runSpark(sparkGraph, q.ql, q.qr, params, computeDiameter = false)
      val l = OnlineBCC.run(planted.graph, q.ql, q.qr, params, computeDiameter = false)
      assert(d.map(_.vertexIds) == l.map(_.vertexIds))
    }

    test(s"query $i: runSpark community equals local run (LP)") {
      val params = LocalBCC.defaultParams(planted.graph, q.ql, q.qr)
      val d = LPBCC.runSpark(sparkGraph, q.ql, q.qr, params, computeDiameter = false)
      val l = LPBCC.run(planted.graph, q.ql, q.qr, params, computeDiameter = false)
      assert(d.map(_.vertexIds) == l.map(_.vertexIds))
    }
  }

  test("fully distributed refinement returns the Figure 2 community") {
    val g = LabeledGraph.fromLocal(spark, PaperGraphs.figure1)
    val res = DistOnlineBCC.run(g, PaperGraphs.Fig1Ids.ql, PaperGraphs.Fig1Ids.qr, BCCParams(4, 3, 1))
    assert(res.map(_.vertexIds).contains(PaperGraphs.figure2Community))
  }

  test("fully distributed refinement equals the driver-side loop on a planted query") {
    // a small planted graph keeps the per-round Spark job count affordable
    val small = GraphGen.planted2Label(
      GraphGen.SnapParams("tiny", 8, 8, 14, 4, 0.15, 0.10, 5L))
    val q = QueryGen.queries2(small, n = 1, seed = 6).head
    val params = LocalBCC.defaultParams(small.graph, q.ql, q.qr)
    val sg = LabeledGraph.fromLocal(spark, small.graph).cached()
    val d = DistOnlineBCC.run(sg, q.ql, q.qr, params)
    val l = OnlineBCC.run(small.graph, q.ql, q.qr, params, computeDiameter = false)
    assert(d.map(_.vertexIds) == l.map(_.vertexIds))
    assert(d.map(_.queryDistance) == l.map(_.queryDistance))
  }

  test("distributed BCIndex coreness matches the local index") {
    val g = PaperGraphs.figure1
    val idx = BCIndex.build(g)
    val dCoreness = BCIndex
      .corenessSpark(LabeledGraph.fromLocal(spark, g))
      .collect()
      .map(r => r.getLong(0) -> r.getInt(1))
      .toMap
    for (v <- 0 until g.n)
      assert(dCoreness(g.ids(v)) == idx.coreness(v), s"vertex ${g.ids(v)}")
  }

  test("distributed per-pair butterfly index matches the local index") {
    val g = PaperGraphs.figure3
    val idx = BCIndex.build(g)
    val local = idx.butterflyDegrees("SE", "UI")
    val dist = BCIndex
      .butterflySpark(LabeledGraph.fromLocal(spark, g), "SE", "UI")
      .collect()
      .map(r => r.getLong(0) -> r.getLong(1))
      .toMap
    for (v <- 0 until g.n)
      assert(dist.getOrElse(g.ids(v), 0L) == local(v), s"vertex ${g.ids(v)}")
  }

  test("an early exit of the fully distributed refinement still records its time") {
    val inst = new repro.eval.Instrument
    assert(DistOnlineBCC.run(sparkGraph, -1L, queries.head.qr, BCCParams(1, 1, 1), inst).isEmpty)
    assert(inst.totalNanos > 0)
  }
}
