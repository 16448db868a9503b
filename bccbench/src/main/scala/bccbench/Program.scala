package bccbench

import org.apache.spark.sql.SparkSession
import repro.baseline.{CTC, PSA}
import repro.core._
import repro.data.{GraphGen, QueryGen}
import repro.eval.{F1, Instrument}
import repro.graph.{LabeledGraph, LocalGraph}

/** The adapter: the only file of the benchmark that calls into the program
  * under test. Everything else sees the program through the aliases and
  * functions below, so an API change in the program (for example one
  * search entry point replacing OnlineBCC/LPBCC/L2PBCC) is absorbed here.
  */
object Program {

  type Graph = LocalGraph
  type SparkGraph = LabeledGraph
  type Index = BCIndex
  type Truss = Map[(Int, Int), Int]
  type Params = BCCParams
  type Cand = Candidate
  /** Per-attempt counters; a fresh one is made for every (query, method). */
  type Probe = Instrument

  /** A query: one vertex per label, and the planted community it came from. */
  final case class Query(ids: Vector[Long], truth: Set[Long])

  /** Vertex and edge lists, so set-up can time building the graph itself. */
  final case class GraphData(vertices: Vector[(Long, String)], edges: Vector[(Long, Long)])

  // ---- input generation (benchmark-side, never timed) ----

  private def dataOf(g: LocalGraph): GraphData =
    GraphData(
      (0 until g.n).map(v => (g.ids(v), g.labels(v))).toVector,
      g.edges.map { case (u, v) => (g.ids(u), g.ids(v)) }.toVector)

  type Planted = GraphGen.Planted
  type PlantedMulti = GraphGen.PlantedMulti

  /** A planted 2-label graph with `scale` times the communities of
    * `preset`, built from the preset's own generator seed.
    */
  def planted(preset: String, scale: Double): Planted = {
    val base = GraphGen.snapPresets(preset)
    GraphGen.planted2Label(base.copy(nCommunities = math.max(2, (base.nCommunities * scale).round.toInt)))
  }

  def data(p: Planted): GraphData = dataOf(p.graph)

  def queries(p: Planted, n: Int, seed: Long): Vector[Query] =
    QueryGen.queries2(p, n, seed).map(q => Query(Vector(q.ql, q.qr), q.truth)).toVector

  /** One query per community that has both labels, in community order; the
    * seed draws each query's two vertices. Every community is queried once,
    * so pools of different seeds differ only in where the queries sit.
    */
  def queriesPerCommunity(p: Planted, seed: Long): Vector[Query] = {
    val rnd = new scala.util.Random(seed)
    p.communities.filter(c => c.left.nonEmpty && c.right.nonEmpty).map { c =>
      val (l, r) = (c.left.toIndexedSeq.sorted, c.right.toIndexedSeq.sorted)
      Query(Vector(l(rnd.nextInt(l.size)), r(rnd.nextInt(r.size))), c.all)
    }
  }

  /** A Baidu-like multi-team graph with `scale` times the teams and
    * projects of `preset`, built from the preset's own generator seed.
    */
  def baidu(preset: String, scale: Int): PlantedMulti = {
    val base = GraphGen.baiduPresets(preset)
    GraphGen.baiduLike(base.copy(nTeams = base.nTeams * scale, nProjects = base.nProjects * scale))
  }

  def data(p: PlantedMulti): GraphData = dataOf(p.graph)

  /** Queries with one vertex in each of `m` teams of a planted project. */
  def queries(p: PlantedMulti, m: Int, n: Int, seed: Long): Vector[Query] =
    QueryGen.queriesM(p, m, n, seed).map(q => Query(q.qs.toVector, q.truth)).toVector

  // ---- set-up (timed as setup_s) ----

  def build(d: GraphData): Graph = LocalGraph(d.vertices, d.edges)
  def buildIndex(g: Graph): Index = BCIndex.build(g)
  def fillPair(ix: Index, labA: String, labB: String): Unit = ix.butterflyDegrees(labA, labB)
  def trussness(g: Graph): Truss = g.trussness()
  def defaultParams(g: Graph, ql: Long, qr: Long): Params = LocalBCC.defaultParams(g, ql, qr)

  /** Per-label core thresholds for an m-label query, by the same default
    * policy as the 2-label methods (query coreness within its label).
    */
  def defaultKs(g: Graph, qs: Vector[Long]): Vector[Int] = {
    val p = defaultParams(g, qs(0), qs(1))
    Vector(p.k1, p.k2) ++ qs.drop(2).map(q => defaultParams(g, qs(0), q).k2)
  }

  def sparkSession(master: String, conf: Seq[(String, String)]): SparkSession = {
    val b = SparkSession.builder.master(master).appName("bccbench")
    conf.foreach { case (k, v) => b.config(k, v) }
    val s = b.getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def sparkGraph(spark: SparkSession, g: Graph): SparkGraph = LabeledGraph.fromLocal(spark, g).cached()

  // ---- graph facts (provenance, replays, validation) ----

  def n(g: Graph): Int = g.n
  def edgeCount(g: Graph): Long = g.edgeCount
  def labelCount(g: Graph): Int = g.labelSet.size
  def labelOf(g: Graph, id: Long): String = g.labels(g.indexOf(id))
  def indexOf(g: Graph, id: Long): Int = g.indexOf(id)
  def neighbors(g: Graph, v: Int): Array[Int] = g.neighbors(v)
  def labelMask(g: Graph, label: String): Array[Boolean] = Array.tabulate(g.n)(v => g.labels(v) == label)
  def params(k1: Int, k2: Int, b: Int): Params = BCCParams(k1, k2, b)
  def k1(p: Params): Int = p.k1
  def k2(p: Params): Int = p.k2
  def b(p: Params): Int = p.b

  // ---- the methods, untraced (end-to-end) ----

  def online(g: Graph, ql: Long, qr: Long, p: Params, inst: Probe): Option[Set[Long]] =
    OnlineBCC.run(g, ql, qr, p, inst, computeDiameter = false).map(_.vertexIds)

  def lp(g: Graph, ql: Long, qr: Long, p: Params, inst: Probe): Option[Set[Long]] =
    LPBCC.run(g, ql, qr, p, inst, computeDiameter = false).map(_.vertexIds)

  def l2p(g: Graph, ql: Long, qr: Long, p: Params, ix: Index, inst: Probe): Option[Set[Long]] =
    L2PBCC.run(g, ql, qr, p, ix, inst, computeDiameter = false).map(_.vertexIds)

  def ctc(g: Graph, qs: Seq[Long], truss: Truss, inst: Probe): Option[Set[Long]] =
    CTC.run(g, qs, inst, trussCache = Some(truss))

  def psa(g: Graph, qs: Seq[Long], inst: Probe): Option[Set[Long]] = PSA.run(g, qs, inst = inst)

  def mbcc(g: Graph, qs: Seq[Long], ks: Seq[Int], b: Int, inst: Probe): Option[Set[Long]] =
    MultiBCC.run(g, qs, ks, b, inst, fast = true).map(_.vertexIds)

  def sparkLp(sg: SparkGraph, ql: Long, qr: Long, p: Params, inst: Probe): Option[Set[Long]] =
    LPBCC.runSpark(sg, ql, qr, p, inst, computeDiameter = false).map(_.vertexIds)

  // ---- the phases OnlineBCC/LPBCC run, called one by one (traced run) ----

  def findG0(g: Graph, ql: Long, qr: Long, p: Params, inst: Probe): Option[Cand] =
    LocalBCC.findG0(g, ql, qr, p, inst)

  def sparkFindG0(sg: SparkGraph, ql: Long, qr: Long, p: Params, inst: Probe): Option[Cand] =
    FindG0.find(sg, ql, qr, p, inst)

  /** `BCCEngine` + `seedChi` + `Refine.run`, as both methods do after FindG0. */
  def refine(c: Cand, p: Params, inst: Probe, naive: Boolean): Option[Set[Long]] = {
    val e = new BCCEngine(c.g0, p, c.ql, c.qr, inst)
    e.seedChi(c.chi)
    Refine.run(e, if (naive) Refine.Naive else Refine.FastLP, computeDiameter = false).map(_.vertexIds)
  }

  def g0(c: Cand): Graph = c.g0
  def candQueries(c: Cand): (Int, Int) = (c.ql, c.qr)

  // ---- LocalGraph primitives, replayed on the inputs the methods pass ----

  def butterflyDegrees(g: Graph, left: Array[Boolean], right: Array[Boolean]): Array[Long] =
    g.butterflyDegrees(left, right)
  def bfs(g: Graph, src: Int): Array[Int] = g.bfs(Seq(src))
  def kCoreMask(g: Graph, k: Int, mask: Array[Boolean]): Array[Boolean] = g.kCoreMask(k, mask)
  def componentOf(g: Graph, src: Int, mask: Array[Boolean]): Array[Boolean] = g.componentOf(src, mask)
  def induced(g: Graph, keep: Array[Boolean]): Graph = g.induced(keep)
  def coreness(g: Graph, mask: Array[Boolean]): Array[Int] = g.coreness(mask)
  val Inf: Int = LocalGraph.Inf

  // ---- Instrument, read field by field (never totalNanos) ----

  def probe(): Probe = new Instrument
  def butterflyCalls(i: Probe): Int = i.butterflyCountCalls
  def rounds(i: Probe): Int = i.rounds
  def queryDistMs(i: Probe): Double = i.queryDistNanos / 1e6
  def leaderUpdateMs(i: Probe): Double = i.leaderUpdateNanos / 1e6
  def butterflyMs(i: Probe): Double = i.butterflyCountNanos / 1e6

  // ---- correctness gate and quality ----

  def violations(g: Graph, ids: Set[Long], ql: Long, qr: Long, p: Params): List[String] =
    Model.violations(g, ids, ql, qr, p)

  /** True iff `ids` contains every query and induces a connected subgraph. */
  def connectedWith(g: Graph, ids: Set[Long], qs: Seq[Long]): Boolean =
    qs.forall(ids.contains) && {
      val sub = g.inducedByIds(ids)
      !sub.bfs(Seq(sub.indexOf(qs.head))).contains(LocalGraph.Inf)
    }

  /** Violations of an m-label answer (Def. 7): with m = 2 this is
    * `Model.violations`; otherwise every query present, only the query
    * labels, connected, each group a k_i-core, and the label meta-graph
    * (an edge where a pair has a leader with chi >= b on each side)
    * connected.
    */
  def mbccViolations(g: Graph, ids: Set[Long], qs: Seq[Long], ks: Seq[Int], b: Int): List[String] =
    if (qs.length == 2) violations(g, ids, qs(0), qs(1), BCCParams(ks(0), ks(1), b))
    else {
      val errs = List.newBuilder[String]
      if (!qs.forall(ids.contains)) return List("missing query vertex")
      val sub = g.inducedByIds(ids)
      val labs = qs.map(q => sub.labels(sub.indexOf(q)))
      if ((sub.labelSet -- labs).nonEmpty) errs += "extra labels present"
      if (sub.bfs(Seq(0)).contains(LocalGraph.Inf)) errs += "community is not connected"
      for (v <- 0 until sub.n) {
        val k = ks(labs.indexOf(sub.labels(v)))
        if (sub.neighbors(v).count(u => sub.labels(u) == sub.labels(v)) < k)
          errs += s"vertex ${sub.ids(v)} below its core threshold"
      }
      val masks = labs.map(l => Array.tabulate(sub.n)(v => sub.labels(v) == l))
      val parent = Array.tabulate(labs.length)(identity)
      def find(x: Int): Int = if (parent(x) == x) x else find(parent(x))
      for (i <- labs.indices; j <- i + 1 until labs.length) {
        val chi = sub.butterflyDegrees(masks(i), masks(j))
        val ok = (0 until sub.n).exists(v => masks(i)(v) && chi(v) >= b) &&
          (0 until sub.n).exists(v => masks(j)(v) && chi(v) >= b)
        if (ok) parent(find(i)) = find(j)
      }
      if (labs.indices.map(find).distinct.size != 1) errs += "label meta-graph not connected"
      errs.result()
    }

  def f1(found: Set[Long], truth: Set[Long]): Double = F1.f1(found, truth)
}
