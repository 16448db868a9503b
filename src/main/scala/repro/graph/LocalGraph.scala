package repro.graph

import scala.collection.mutable

/** Immutable adjacency-array labeled graph held on the driver.
  *
  * This is the substrate for (a) reference implementations that distributed
  * dataflow ops are tested against and (b) the paper's inherently sequential
  * refinement loops (Algorithms 1, 4-8), which operate on the small candidate
  * community `G0` extracted by the distributed phase.
  *
  * Vertices are dense indices `0..n-1`; `ids` maps back to external ids and
  * `labels` carries the vertex label function. The graph is simple and
  * undirected: adjacency lists are deduplicated, self-loop free, and sorted.
  */
final class LocalGraph(
    val ids: Array[Long],
    val labels: Array[String],
    val adj: Array[Array[Int]]) extends Serializable {

  /** Number of vertices. */
  val n: Int = ids.length

  /** Number of undirected edges. */
  lazy val edgeCount: Long = adj.iterator.map(_.length.toLong).sum / 2

  /** External id -> internal index. */
  lazy val indexOf: Map[Long, Int] = ids.zipWithIndex.toMap

  /** Distinct labels present in the graph. */
  lazy val labelSet: Set[String] = labels.toSet

  /** Degree of internal vertex `v`. */
  def degree(v: Int): Int = adj(v).length

  /** Neighbors of internal vertex `v`. */
  def neighbors(v: Int): Array[Int] = adj(v)

  /** True if `u` and `v` are adjacent (binary search; lists are sorted). */
  def hasEdge(u: Int, v: Int): Boolean = java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** All undirected edges as canonical (u < v) internal index pairs. */
  def edges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => adj(u).iterator.filter(_ > u).map(v => (u, v)))

  /** Induced subgraph on the vertices where `keep(v)`; re-indexed.
    * Kept vertices keep their relative order, so the `i`-th kept vertex of
    * this graph is vertex `i` of the result.
    */
  def induced(keep: Array[Boolean]): LocalGraph = {
    val newIdx = Array.fill(n)(-1)
    var m = 0
    var v = 0
    while (v < n) { if (keep(v)) { newIdx(v) = m; m += 1 }; v += 1 }
    val nIds = new Array[Long](m)
    val nLabels = new Array[String](m)
    val nAdj = new Array[Array[Int]](m)
    v = 0
    while (v < n) {
      val w = newIdx(v)
      if (w >= 0) {
        nIds(w) = ids(v)
        nLabels(w) = labels(v)
        // adj(v) is sorted and newIdx is monotone on kept vertices, so the
        // filtered list is sorted too
        val ns = adj(v)
        var c = 0
        var i = 0
        while (i < ns.length) { if (keep(ns(i))) c += 1; i += 1 }
        val out = new Array[Int](c)
        c = 0
        i = 0
        while (i < ns.length) { if (keep(ns(i))) { out(c) = newIdx(ns(i)); c += 1 }; i += 1 }
        nAdj(w) = out
      }
      v += 1
    }
    new LocalGraph(nIds, nLabels, nAdj)
  }

  /** Induced subgraph on the given external ids. */
  def inducedByIds(keepIds: Set[Long]): LocalGraph = {
    val keep = Array.tabulate(n)(v => keepIds.contains(ids(v)))
    induced(keep)
  }

  /** BFS distances from `sources` over `alive` vertices.
    * Unreachable (or dead) vertices get [[LocalGraph.Inf]]; dead and
    * repeated sources are skipped.
    */
  def bfs(sources: Seq[Int], alive: Array[Boolean] = null): Array[Int] = {
    val dist = new Array[Int](n)
    java.util.Arrays.fill(dist, LocalGraph.Inf)
    val queue = new Array[Int](n) // every vertex enters at most once
    var tail = 0
    val it = sources.iterator
    while (it.hasNext) {
      val s = it.next()
      if ((alive == null || alive(s)) && dist(s) == LocalGraph.Inf) {
        dist(s) = 0; queue(tail) = s; tail += 1
      }
    }
    var head = 0
    while (head < tail) {
      val u = queue(head)
      head += 1
      val du = dist(u)
      val ns = adj(u)
      var i = 0
      while (i < ns.length) {
        val w = ns(i)
        if ((alive == null || alive(w)) && dist(w) == LocalGraph.Inf) {
          dist(w) = du + 1
          queue(tail) = w; tail += 1
        }
        i += 1
      }
    }
    dist
  }

  /** Mask of the connected component containing `src` (over `alive`). */
  def componentOf(src: Int, alive: Array[Boolean] = null): Array[Boolean] =
    bfs(Seq(src), alive).map(_ != LocalGraph.Inf)

  /** Component id (min reachable index) per vertex; dead vertices get -1. */
  def components(alive: Array[Boolean] = null): Array[Int] = {
    val comp = Array.fill(n)(-1)
    var v = 0
    while (v < n) {
      if (comp(v) < 0 && (alive == null || alive(v))) {
        val d = bfs(Seq(v), alive)
        var u = 0
        while (u < n) { if (d(u) != LocalGraph.Inf && comp(u) < 0) comp(u) = v; u += 1 }
      }
      v += 1
    }
    comp
  }

  /** Coreness of every vertex via Batagelj-Zaversnik bucket peeling. Dead
    * vertices get -1.
    */
  def coreness(alive: Array[Boolean] = null): Array[Int] = {
    val deg = new Array[Int](n) // -1 marks a dead vertex
    var maxDeg = 0
    var live = 0
    var v = 0
    while (v < n) {
      if (alive == null || alive(v)) {
        val ns = adj(v)
        var d = 0
        var i = 0
        while (i < ns.length) { if (alive == null || alive(ns(i))) d += 1; i += 1 }
        deg(v) = d
        if (d > maxDeg) maxDeg = d
        live += 1
      } else deg(v) = -1
      v += 1
    }
    // counting sort of the live vertices by degree (stable in index);
    // bin(d) = start index of the degree-d block of `order`
    val bin = new Array[Int](maxDeg + 1)
    v = 0
    while (v < n) { if (deg(v) >= 0) bin(deg(v)) += 1; v += 1 }
    var start = 0
    var d = 0
    while (d <= maxDeg) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val order = new Array[Int](live)
    val pos = new Array[Int](n)
    v = 0
    while (v < n) {
      val dv = deg(v)
      if (dv >= 0) { order(bin(dv)) = v; pos(v) = bin(dv); bin(dv) += 1 }
      v += 1
    }
    d = maxDeg
    while (d > 0) { bin(d) = bin(d - 1); d -= 1 }
    bin(0) = 0
    val core = new Array[Int](n)
    v = 0
    while (v < n) { if (deg(v) < 0) core(v) = -1; v += 1 }
    var i = 0
    while (i < live) {
      val v = order(i)
      val dv = deg(v)
      core(v) = dv
      val ns = adj(v)
      var j = 0
      while (j < ns.length) {
        val u = ns(j)
        val du = deg(u) // -1 for dead u, never above dv
        if (du > dv) {
          // swap u to the front of its degree block, then decrement its degree
          val pu = pos(u)
          val pw = bin(du)
          val w = order(pw)
          if (u != w) {
            order(pu) = w; order(pw) = u
            pos(u) = pw; pos(w) = pu
          }
          bin(du) += 1
          deg(u) = du - 1
        }
        j += 1
      }
      i += 1
    }
    core
  }

  /** Mask of the maximal subgraph where every vertex has degree >= k. */
  def kCoreMask(k: Int, alive: Array[Boolean] = null): Array[Boolean] = {
    val keep = if (alive == null) Array.fill(n)(true) else alive.clone()
    val deg = new Array[Int](n)
    val queue = new Array[Int](n) // a vertex enters when its degree first drops below k
    var tail = 0
    var v = 0
    while (v < n) {
      if (keep(v)) {
        val ns = adj(v)
        var d = 0
        var i = 0
        while (i < ns.length) { if (keep(ns(i))) d += 1; i += 1 }
        deg(v) = d
        if (d < k) { queue(tail) = v; tail += 1 }
      }
      v += 1
    }
    var head = 0
    while (head < tail) {
      val v = queue(head)
      head += 1
      keep(v) = false
      val ns = adj(v)
      var i = 0
      while (i < ns.length) {
        val u = ns(i)
        if (keep(u)) {
          deg(u) -= 1
          if (deg(u) == k - 1) { queue(tail) = u; tail += 1 }
        }
        i += 1
      }
    }
    keep
  }

  /** Exact diameter over `alive` vertices: max finite pairwise shortest path.
    * O(n * (n + m)); only for candidate-community-sized graphs.
    */
  def diameter(alive: Array[Boolean] = null): Int = {
    var best = 0
    var v = 0
    while (v < n) {
      if (alive == null || alive(v)) {
        val d = bfs(Seq(v), alive)
        var u = 0
        while (u < n) {
          if (d(u) != LocalGraph.Inf && d(u) > best) best = d(u)
          u += 1
        }
      }
      v += 1
    }
    best
  }

  /** Per-vertex butterfly degree over the bipartite graph induced by cross
    * edges between `left` and `right` masks (paper Algorithm 3).
    *
    * Only edges with one endpoint in `left` and the other in `right` count.
    * Vertices outside both masks (or dead) get 0. For each start vertex `v`,
    * a dense counter holds the number of 2-hop cross paths to every `w`
    * (their common cross neighbours); `p` such paths close `C(p, 2)`
    * butterflies. Only the touched entries are reset after each `v`.
    */
  def butterflyDegrees(
      left: Array[Boolean],
      right: Array[Boolean],
      alive: Array[Boolean] = null): Array[Long] = {
    // side(v): 0 = left, 1 = right, -1 = neither or dead
    val side = new Array[Byte](n)
    var v = 0
    while (v < n) {
      side(v) =
        if (alive != null && !alive(v)) -1
        else if (left(v)) 0
        else if (right(v)) 1
        else -1
      v += 1
    }
    val chi = new Array[Long](n)
    val paths = new Array[Int](n) // w -> #2-hop cross paths v..w; all 0 between starts
    val touched = new Array[Int](n) // the w with paths(w) > 0
    v = 0
    while (v < n) {
      val sv = side(v)
      if (sv >= 0) {
        val other = 1 - sv
        var nTouched = 0
        val nv = adj(v)
        var i = 0
        while (i < nv.length) {
          val u = nv(i)
          if (side(u) == other) {
            val nu = adj(u)
            var j = 0
            while (j < nu.length) {
              val w = nu(j)
              if (side(w) == sv && w != v) {
                if (paths(w) == 0) { touched(nTouched) = w; nTouched += 1 }
                paths(w) += 1
              }
              j += 1
            }
          }
          i += 1
        }
        var c = 0L
        var t = 0
        while (t < nTouched) {
          val w = touched(t)
          val p = paths(w)
          c += p.toLong * (p - 1) / 2
          paths(w) = 0
          t += 1
        }
        chi(v) = c
      }
      v += 1
    }
    chi
  }

  /** Edge support: number of triangles through each canonical edge (u < v). */
  def edgeSupport(alive: Array[Boolean] = null): Map[(Int, Int), Int] = {
    def ok(v: Int): Boolean = alive == null || alive(v)
    val out = mutable.Map[(Int, Int), Int]()
    for ((u, v) <- edges if ok(u) && ok(v)) {
      // count common alive neighbors by merging sorted lists
      var i = 0; var j = 0; var c = 0
      val a = adj(u); val bArr = adj(v)
      while (i < a.length && j < bArr.length) {
        if (a(i) == bArr(j)) { if (ok(a(i))) c += 1; i += 1; j += 1 }
        else if (a(i) < bArr(j)) i += 1
        else j += 1
      }
      out((u, v)) = c
    }
    out.toMap
  }

  /** Trussness of every edge: the largest k such that the edge is in the
    * k-truss (every edge in >= k-2 triangles), by support peeling.
    */
  def trussness(): Map[(Int, Int), Int] = {
    val sup = mutable.Map[(Int, Int), Int]() ++ edgeSupport()
    val aliveEdge = mutable.Set[(Int, Int)]() ++ sup.keys
    val result = mutable.Map[(Int, Int), Int]()
    def key(a: Int, b: Int): (Int, Int) = if (a < b) (a, b) else (b, a)
    var k = 2
    while (aliveEdge.nonEmpty) {
      var changed = true
      while (changed) {
        changed = false
        val toRemove = aliveEdge.filter(e => sup(e) <= k - 2).toSeq
        if (toRemove.nonEmpty) {
          changed = true
          for (e @ (u, v) <- toRemove if aliveEdge.contains(e)) {
            aliveEdge.remove(e)
            result(e) = k
            // every common neighbor w forms a triangle to update
            for (w <- adj(u) if aliveEdge.contains(key(u, w)) && aliveEdge.contains(key(v, w))) {
              sup(key(u, w)) -= 1
              sup(key(v, w)) -= 1
            }
          }
        }
      }
      k += 1
    }
    result.toMap
  }

  /** Mask of vertices in the maximal k-truss (edges in >= k-2 triangles). */
  def kTrussVertexMask(k: Int): Array[Boolean] = {
    val t = trussness()
    val keep = Array.fill(n)(false)
    for (((u, v), tv) <- t if tv >= k) { keep(u) = true; keep(v) = true }
    keep
  }
}

object LocalGraph {
  /** Distance value for unreachable vertices. */
  val Inf: Int = Int.MaxValue

  /** Build from external-id vertices and an undirected edge list.
    * Self-loops are dropped; parallel edges are deduplicated; edges to
    * unknown vertices are an error.
    */
  def apply(vertices: Seq[(Long, String)], rawEdges: Seq[(Long, Long)]): LocalGraph = {
    val ids = vertices.map(_._1).toArray
    require(ids.distinct.length == ids.length, "duplicate vertex ids")
    val labels = vertices.map(_._2).toArray
    val idx = ids.zipWithIndex.toMap
    val adjSets = Array.fill(ids.length)(mutable.SortedSet[Int]())
    for ((a, b) <- rawEdges if a != b) {
      val u = idx.getOrElse(a, sys.error(s"edge endpoint $a not a vertex"))
      val v = idx.getOrElse(b, sys.error(s"edge endpoint $b not a vertex"))
      adjSets(u) += v
      adjSets(v) += u
    }
    new LocalGraph(ids, labels, adjSets.map(_.toArray))
  }
}
