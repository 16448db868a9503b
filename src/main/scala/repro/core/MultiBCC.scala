package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** Section 7: multi-labeled BCC search (Definitions 7-8, Algorithm 9).
  *
  * An mBCC has m labeled groups, each a k_i-core, and the label meta-graph —
  * one node per label, an edge whenever the bipartite graph between two
  * groups has a leader vertex on each side with butterfly degree >= b — must
  * be connected (*cross-group connectivity*). The search framework mirrors
  * Algorithm 1: find a maximal candidate, bulk-delete query-farthest
  * vertices, maintain every group's core and recheck meta-connectivity.
  */
object MultiBCC {

  /** Result of a multi-labeled search. */
  final case class MBCCResult(
      vertexIds: Set[Long],
      labels: Seq[String],
      queryDistance: Int,
      rounds: Int)

  /** Per-label-pair butterfly check: does the bipartite graph between the
    * two groups (over `alive`) have a vertex with chi >= b on *each* side?
    */
  private def pairHasLeaders(
      g: LocalGraph,
      maskA: Array[Boolean],
      maskB: Array[Boolean],
      alive: Array[Boolean],
      b: Int): Boolean = {
    val chi = g.butterflyDegrees(maskA, maskB, alive)
    var maxA = 0L; var maxB = 0L
    var v = 0
    while (v < g.n) {
      if (alive(v)) {
        if (maskA(v) && chi(v) > maxA) maxA = chi(v)
        if (maskB(v) && chi(v) > maxB) maxB = chi(v)
      }
      v += 1
    }
    maxA >= b && maxB >= b
  }

  /** Cross-group connectivity (Def. 7): union-find over the label
    * meta-graph, with one bipartite butterfly check per label pair that has
    * at least one alive cross edge.
    */
  private def crossGroupConnected(
      g: LocalGraph,
      masks: Seq[Array[Boolean]],
      alive: Array[Boolean],
      b: Int): Boolean = {
    val m = masks.length
    val parent = Array.tabulate(m)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    def union(a: Int, c: Int): Unit = parent(find(a)) = find(c)
    for (i <- 0 until m; j <- i + 1 until m) {
      if (find(i) != find(j) && pairHasLeaders(g, masks(i), masks(j), alive, b))
        union(i, j)
    }
    (0 until m).map(find).distinct.size == 1
  }

  /** Butterflies containing leader `p` destroyed by deleting `v`, within
    * the bipartite graph between `maskA` and `maskB` (Algorithm 7 lifted to
    * an arbitrary label pair). Must run while `v` is still alive.
    */
  private def leaderLoss(
      g: LocalGraph,
      maskA: Array[Boolean],
      maskB: Array[Boolean],
      alive: Array[Boolean],
      p: Int,
      v: Int): Long = {
    def inPair(x: Int): Boolean = maskA(x) || maskB(x)
    if (p == v || !inPair(v) || !inPair(p)) return 0L
    def nb(x: Int): Array[Int] = {
      val other = if (maskA(x)) maskB else maskA
      g.neighbors(x).filter(u => alive(u) && other(u))
    }
    def inter(a: Array[Int], b: Array[Int]): Int = {
      var i = 0; var j = 0; var c = 0
      while (i < a.length && j < b.length) {
        if (a(i) == b(j)) { c += 1; i += 1; j += 1 }
        else if (a(i) < b(j)) i += 1
        else j += 1
      }
      c
    }
    val sameSide = maskA(p) == maskA(v)
    if (sameSide) {
      val alpha = inter(nb(p), nb(v))
      alpha.toLong * (alpha - 1) / 2
    } else if (java.util.Arrays.binarySearch(nb(p), v) >= 0) {
      var beta = 0L
      for (u <- nb(v) if u != p) beta += inter(nb(u), nb(p)) - 1
      beta
    } else 0L
  }

  /** Per-pair leader state for the fast (LP-style) mode. */
  private final class PairState(
      var leaderA: Int, var chiA: Long,
      var leaderB: Int, var chiB: Long,
      var valid: Boolean)

  /** Algorithm 9. `queryIds` must carry pairwise distinct labels; `ks(i)`
    * is the core requirement for the label of `queryIds(i)`.
    *
    * @param fast use the Section 6 strategies lifted to m labels:
    *             Algorithm 5 incremental query distances and per-pair
    *             leader tracking with Algorithm 7 updates (full pair
    *             recounts only when a leader dies or drops below b).
    *             Returns the same community as the naive mode.
    */
  def run(
      g: LocalGraph,
      queryIds: Seq[Long],
      ks: Seq[Int],
      b: Int,
      inst: Instrument = new Instrument,
      fast: Boolean = false): Option[MBCCResult] = inst.timeTotal {
    require(queryIds.length >= 2 && queryIds.length == ks.length, "mBCC needs m >= 2 queries")
    val qs = queryIds.map(id => g.indexOf.getOrElse(id, return None))
    val labs = qs.map(g.labels)
    if (labs.distinct.length != labs.length) return None
    val m = labs.length

    // G0: per-label k_i-core component containing q_i (Alg. 9 line 1)
    val compMasks = (0 until m).map { i =>
      val mask = Array.tabulate(g.n)(v => g.labels(v) == labs(i))
      val core = g.kCoreMask(ks(i), mask)
      if (!core(qs(i))) return None
      g.componentOf(qs(i), core)
    }
    val alive = Array.tabulate(g.n)(v => compMasks.exists(_(v)))
    val masks = compMasks // label masks restricted to G0 components
    if (!crossGroupConnected(g, masks, alive, b)) return None

    val intraDeg = Array.tabulate(g.n)(v =>
      if (alive(v)) g.neighbors(v).count(u => alive(u) && g.labels(u) == g.labels(v)) else 0)
    val kOf: Int => Int = v => ks(labs.indexOf(g.labels(v)))

    // fast-mode state: per-pair leaders tracked with Algorithm 7 updates
    val pairIdx = for (i <- 0 until m; j <- i + 1 until m) yield (i, j)
    val pairState = scala.collection.mutable.Map[(Int, Int), PairState]()
    val pairStale = scala.collection.mutable.Set[(Int, Int)]()
    def recountPair(i: Int, j: Int): PairState = {
      inst.butterflyCountCalls += 1
      val chi = inst.timeButterflyCount(g.butterflyDegrees(masks(i), masks(j), alive))
      var (la, ca, lb, cb) = (-1, -1L, -1, -1L)
      var v = 0
      while (v < g.n) {
        if (alive(v)) {
          if (masks(i)(v) && chi(v) > ca) { la = v; ca = chi(v) }
          if (masks(j)(v) && chi(v) > cb) { lb = v; cb = chi(v) }
        }
        v += 1
      }
      new PairState(la, ca, lb, cb, valid = ca >= b && cb >= b)
    }
    if (fast) for ((i, j) <- pairIdx) pairState((i, j)) = recountPair(i, j)

    def metaConnected(): Boolean =
      if (!fast) crossGroupConnected(g, masks, alive, b)
      else {
        // refresh stale or weakened pairs with a full recount (chi only
        // decreases, so invalid pairs stay invalid and are skipped)
        for ((i, j) <- pairIdx) {
          val st = pairState((i, j))
          if (st.valid && (pairStale.contains((i, j)) || st.chiA < b || st.chiB < b))
            pairState((i, j)) = recountPair(i, j)
        }
        pairStale.clear()
        val parent = Array.tabulate(m)(identity)
        def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
        for ((i, j) <- pairIdx if pairState((i, j)).valid) parent(find(i)) = find(j)
        (0 until m).map(find).distinct.size == 1
      }

    def onDelete(v: Int): Unit = if (fast) inst.timeLeaderUpdate {
      for ((i, j) <- pairIdx) {
        val st = pairState((i, j))
        if (st.valid) {
          if (v == st.leaderA || v == st.leaderB) pairStale.add((i, j))
          else {
            st.chiA -= leaderLoss(g, masks(i), masks(j), alive, st.leaderA, v)
            st.chiB -= leaderLoss(g, masks(i), masks(j), alive, st.leaderB, v)
          }
        }
      }
    }

    def deleteCascade(seeds: Seq[Int]): Option[Seq[Int]] = { // None => a query died
      val queue = new java.util.ArrayDeque[Int]()
      seeds.foreach(queue.add(_))
      val removed = scala.collection.mutable.ArrayBuffer[Int]()
      while (!queue.isEmpty) {
        val v = queue.poll()
        if (alive(v)) {
          if (qs.contains(v)) return None
          onDelete(v)
          alive(v) = false
          removed += v
          for (u <- g.neighbors(v) if alive(u) && g.labels(u) == g.labels(v)) {
            intraDeg(u) -= 1
            if (intraDeg(u) < kOf(u)) queue.add(u)
          }
        }
      }
      Some(removed.toSeq)
    }

    val Inf = LocalGraph.Inf
    var bestMask: Array[Boolean] = null
    var bestQd = Inf
    var go = true
    var first = true
    var lastDeleted: Seq[Int] = Nil
    val dists = qs.map(q => inst.timeQueryDist(g.bfs(Seq(q), alive))).toArray
    var rounds = 0
    while (go) {
      rounds += 1
      inst.rounds += 1
      if (!first) {
        if (fast) inst.timeQueryDist {
          dists.foreach(FastDist.update(g, alive, _, lastDeleted))
        } else {
          for (i <- 0 until m) dists(i) = inst.timeQueryDist(g.bfs(Seq(qs(i)), alive))
        }
      }
      first = false
      if (dists.head(qs.last) == Inf) go = false
      else {
        var maxQd = 0
        val qd = Array.fill(g.n)(-1)
        var v = 0
        while (v < g.n) {
          if (alive(v)) {
            var d = 0
            var i = 0
            while (i < m && d != Inf) {
              val dv = dists(i)(v)
              d = if (dv == Inf) Inf else math.max(d, dv); i += 1
            }
            qd(v) = d
            if (d == Inf) maxQd = Inf else if (maxQd != Inf) maxQd = math.max(maxQd, d)
          }
          v += 1
        }
        if (maxQd != Inf && maxQd < bestQd) { bestMask = alive.clone(); bestQd = maxQd }
        val batch = (0 until g.n).filter(v => alive(v) && qd(v) == maxQd)
        if (batch.exists(qs.contains(_))) go = false
        else deleteCascade(batch) match {
          case None => go = false
          case Some(removed) =>
            lastDeleted = removed
            if (!metaConnected()) go = false
        }
      }
    }

    Option(bestMask).map { mask =>
      val ids = (0 until g.n).iterator.filter(mask).map(g.ids).toSet
      MBCCResult(ids, labs, bestQd, rounds)
    }
  }
}
