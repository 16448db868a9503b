package bccbench

import scala.collection.mutable
import Program.{Graph, GraphData, Params, Query}

/** One workload's inputs. The graphs are fixed per workload; the seed
  * draws the query pools. The traced run's Spark phase runs on
  * `sparkGraph` (the main graph when None) with `sparkQuery`.
  */
final case class Inputs(
    graph: GraphData,
    queries: Vector[Query],
    mQueries: Vector[Query],
    sparkGraph: Option[GraphData],
    sparkQuery: Query)

object Workloads {
  val names: Seq[String] = Seq("snap-2label", "baidu-multilabel")

  def generate(name: String, seed: Long): Inputs = name match {
    // orkut-lite with half its communities: G0 is most of the graph, so the
    // candidate peel loop dominates. One query per community, so the pool
    // covers the graph the same way for every seed. A Spark query on this
    // graph would take minutes, so the Spark phase runs on a graph with a
    // quarter of amazon-lite's communities.
    case "snap-2label" =>
      val p = Program.planted("orkut-lite", 0.5)
      val qs = Program.queriesPerCommunity(p, seed)
      val sp = Program.planted("amazon-lite", 0.25)
      Inputs(Program.data(p), qs, qs, Some(Program.data(sp)), Program.queries(sp, 1, seed).head)
    // baidu2-lite with 4x the teams and projects: G0 is ~1% of the graph,
    // so whole-graph work (index, Dijkstra, coreness, truss) dominates;
    // mBCC uses m = 3 queries. Spark runs on the same graph.
    case "baidu-multilabel" =>
      val p = Program.baidu("baidu2-lite", 4)
      def pool(m: Int) = Program.queries(p, m, 80, seed + m)
      val q2 = pool(2)
      Inputs(Program.data(p), q2, pool(3), None, q2.head)
  }
}

/** One query's answers per method; the outer None means the call threw. */
final case class Answers(
    online: Option[Option[Set[Long]]],
    lp: Option[Option[Set[Long]]],
    l2p: Option[Option[Set[Long]]],
    ctc: Option[Option[Set[Long]]],
    psa: Option[Option[Set[Long]]],
    mbcc: Option[Option[Set[Long]]]) {
  def all: Seq[Option[Option[Set[Long]]]] = Seq(online, lp, l2p, ctc, psa, mbcc)
}

/** Per-graph state built by the local set-up. */
final class State(
    val g: Graph,
    val index: Program.Index,
    val truss: Program.Truss,
    val params: Vector[Params],
    val ks: Vector[Vector[Int]])

/** State built by the Spark set-up. */
final class SparkState(
    val spark: org.apache.spark.sql.SparkSession,
    val local: Graph,
    val graph: Program.SparkGraph)

/** The benchmark proper: sets up the workload's state, warms up, then
  * makes timed closed-loop passes over the query pool, setting up again
  * between them, checks every answer and prints one raw JSON line
  * (`run.py` turns it into metrics). With `--trace 1` it makes two passes,
  * then runs each query phase by phase, replays the LocalGraph primitives
  * on the inputs the methods pass, and runs the Spark phase.
  */
object Main {

  /** Untimed queries (the first of the pool) before the timed passes, so
    * the JIT has compiled the hot loops.
    */
  val WarmupQueries = 30
  /** The reference work (HostSpeed) runs before every this many queries of
    * a timed pass, so that `run.py` can scale each pass's times to one
    * host speed.
    */
  val ReferenceEvery = 10
  val SparkMaster = s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]"
  val SparkConf: Seq[(String, String)] = Seq(
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    "spark.sql.shuffle.partitions" -> "4",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1")

  /** Fixed, low core thresholds, so that every Spark query runs every step
    * of FindG0 (peel, components, butterfly count, collect).
    */
  val SparkParams: Params = Program.params(2, 2, 1)

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val a = Args(get("--workload"), get("--seed").toLong, get("--seconds").toDouble, get("--trace") == "1")
    require(Workloads.names.contains(a.workload), s"unknown workload ${a.workload}")
    a
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val run = new Run(args)
    run.go()
    println("BCCBENCH_RAW " + Json(run.result))
  }
}

final class Run(args: Main.Args) {
  import Main._

  private val samples = mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]]()
  private def add(name: String, v: Double): Unit =
    samples.getOrElseUpdate(name, mutable.ArrayBuffer[Double]()) += v

  /** Method latencies per query index, one per timed pass in pass order.
    * `run.py` scales each pass by its reference time and takes a query's
    * median over the passes, so every query of the pool weighs the same.
    */
  private val latency = mutable.LinkedHashMap[String, mutable.Map[Int, mutable.ArrayBuffer[Double]]]()
  private def addLatency(metric: String, j: Int, v: Double): Unit =
    latency.getOrElseUpdate(metric, mutable.Map()).getOrElseUpdate(j, mutable.ArrayBuffer[Double]()) += v
  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private var attempted = 0L
  /** Answer quality counts the first timed pass only, so it does not
    * depend on how many passes a run makes.
    */
  private var qualityAttempts = 0L
  private var answered = 0L
  private var failed = 0L
  private val failures = mutable.ArrayBuffer[String]()
  private def fail(msg: String): Unit = {
    failed += 1
    if (failures.length < 20) failures += msg
  }
  /** Answers of the first timed pass, in order, so traced and untraced
    * runs of one seed can be compared.
    */
  private val answerLog = mutable.ArrayBuffer[String]()
  private val prov = mutable.LinkedHashMap[String, Any]()

  private def now(): Long = System.nanoTime()
  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6
  private def timed[T](name: String)(f: => T): T = {
    val t0 = now(); val r = f; add(name, ms(t0)); r
  }

  // ---- set-up ----

  private val inputs = Workloads.generate(args.workload, args.seed)

  private def labelPair(g: Graph, q: Query): (String, String) = {
    val a = Program.labelOf(g, q.ids(0)); val b = Program.labelOf(g, q.ids(1))
    if (a <= b) (a, b) else (b, a)
  }

  private def setup(): State = {
    val g = Program.build(inputs.graph)
    val index = timed("core.index.build.ms")(Program.buildIndex(g))
    timed("core.index.pair_fill.ms") {
      inputs.queries.map(labelPair(g, _)).distinct.foreach { case (a, b) => Program.fillPair(index, a, b) }
    }
    val truss = timed("graph.trussness.ms")(Program.trussness(g))
    val params = inputs.queries.map(q => timed("core.defaultParams.ms")(Program.defaultParams(g, q.ids(0), q.ids(1))))
    val ks =
      if (inputs.mQueries eq inputs.queries) params.map(p => Vector(Program.k1(p), Program.k2(p)))
      else inputs.mQueries.map(q => Program.defaultKs(g, q.ids))
    new State(g, index, truss, params, ks)
  }

  /** Builds the per-graph state and records how long that took. */
  private def timedSetup(): State = {
    val t0 = now()
    val st = setup()
    add("setup_s", ms(t0) / 1e3)
    st
  }

  private def sparkSetup(st: State): SparkState = {
    val spark = Program.sparkSession(SparkMaster, SparkConf)
    val local = inputs.sparkGraph.map(Program.build).getOrElse(st.g)
    new SparkState(spark, local, Program.sparkGraph(spark, local))
  }

  private def retainedHeapMb(): Double = {
    val rt = Runtime.getRuntime
    for (_ <- 0 until 3) { System.gc(); Thread.sleep(50) }
    (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
  }

  // ---- one attempt ----

  private val MethodNames = Seq("online", "lp", "l2p", "ctc", "psa", "mbcc")

  /** Runs one method call with the benchmark's clock (kept only when
    * `record`; warm-up calls are not timed). None if it threw.
    */
  private def attempt(method: String, metric: String, j: Int, record: Boolean)(
      f: => Option[Set[Long]]): Option[Option[Set[Long]]] = {
    val t0 = now()
    val r =
      try Some(f)
      catch { case e: Exception => fail(s"$method threw ${e.getClass.getSimpleName}: ${e.getMessage}"); None }
    if (record) addLatency(metric, j, ms(t0))
    attempted += 1
    r
  }

  /** Runs traced calls; a throw counts as a failure instead of ending the run. */
  private def guarded(what: String)(f: => Unit): Unit =
    try f catch { case e: Exception => fail(s"$what threw ${e.getClass.getSimpleName}: ${e.getMessage}") }

  private def show(a: Option[Option[Set[Long]]]): String =
    a.map(_.map(_.toSeq.sorted.mkString(",")).getOrElse("none")).getOrElse("threw")

  // ---- the local query loop ----

  private def untraced(st: State, j: Int, record: Boolean): Answers = {
    val g = st.g
    val q = inputs.queries(j); val p = st.params(j)
    val (ql, qr) = (q.ids(0), q.ids(1))
    val mq = inputs.mQueries(j)
    Answers(
      attempt("online", "online_ms", j, record)(Program.online(g, ql, qr, p, Program.probe())),
      attempt("lp", "lp_ms", j, record)(Program.lp(g, ql, qr, p, Program.probe())),
      attempt("l2p", "l2p_ms", j, record)(Program.l2p(g, ql, qr, p, st.index, Program.probe())),
      attempt("ctc", "ctc_ms", j, record)(Program.ctc(g, q.ids, st.truss, Program.probe())),
      attempt("psa", "psa_ms", j, record)(Program.psa(g, q.ids, Program.probe())),
      attempt("mbcc", "mbcc_ms", j, record)(Program.mbcc(g, mq.ids, st.ks(j), Program.b(p), Program.probe())))
  }

  /** The correctness gate for one query's answers; counts failures and
    * answer quality.
    */
  private def gate(st: State, j: Int, a: Answers): Unit = {
    val g = st.g
    val q = inputs.queries(j); val p = st.params(j)
    val (ql, qr) = (q.ids(0), q.ids(1))
    def bcc(name: String, r: Option[Option[Set[Long]]]): Unit = r.flatten.foreach { ids =>
      val errs = Program.violations(g, ids, ql, qr, p)
      if (errs.nonEmpty) fail(s"$name q$j: ${errs.take(3).mkString("; ")}")
    }
    bcc("online", a.online); bcc("lp", a.lp); bcc("l2p", a.l2p)
    if (a.online.isDefined && a.lp.isDefined && a.online != a.lp)
      fail(s"online and lp differ on q$j")
    def baseline(name: String, r: Option[Option[Set[Long]]]): Unit = r.flatten.foreach { ids =>
      if (!Program.connectedWith(g, ids, q.ids)) fail(s"$name q$j: not connected or misses a query")
    }
    baseline("ctc", a.ctc); baseline("psa", a.psa)
    val mq = inputs.mQueries(j)
    a.mbcc.flatten.foreach { ids =>
      val errs = Program.mbccViolations(g, ids, mq.ids, st.ks(j), Program.b(p))
      if (errs.nonEmpty) fail(s"mbcc q$j: ${errs.take(3).mkString("; ")}")
    }
    qualityAttempts += a.all.length
    answered += a.all.count(_.exists(_.isDefined))
    def f1(r: Option[Option[Set[Long]]], truth: Set[Long]): Unit =
      add("f1", r.flatten.map(Program.f1(_, truth)).getOrElse(0.0))
    f1(a.online, q.truth); f1(a.lp, q.truth); f1(a.l2p, q.truth); f1(a.mbcc, mq.truth)
    answerLog ++= a.all.map(show)
  }

  // ---- the traced run: the same calls, phase by phase, plus replays ----

  private def traced(st: State, j: Int, plain: Answers): Unit = {
    val g = st.g
    val q = inputs.queries(j); val p = st.params(j)
    val (ql, qr) = (q.ids(0), q.ids(1))
    var tracedMs = 0.0
    def wall[T](f: => T): T = { val t0 = now(); val r = f; tracedMs += ms(t0); r }

    // Online (naive) and LP (fast): FindG0, then BCCEngine + seedChi + Refine.run
    val perQuery = mutable.Map[String, Double]().withDefaultValue(0.0)
    var cand: Option[Program.Cand] = None
    def bcc(naive: Boolean): Option[Set[Long]] = {
      val inst = Program.probe()
      val r = wall {
        val c = timed("core.findG0.ms")(Program.findG0(g, ql, qr, p, inst))
        cand = c
        c.flatMap(c => timed(if (naive) "core.refine.naive.ms" else "core.refine.fastlp.ms")(
          Program.refine(c, p, inst, naive)))
      }
      perQuery("core.querydist.ms") += Program.queryDistMs(inst)
      perQuery("core.butterfly.ms") += Program.butterflyMs(inst)
      perQuery("core.butterfly_calls") += Program.butterflyCalls(inst)
      perQuery("core.leader_update.ms") += Program.leaderUpdateMs(inst)
      perQuery("core.rounds") += Program.rounds(inst)
      r
    }
    val online = bcc(naive = true)
    val lp = bcc(naive = false)
    perQuery.foreach { case (k, v) => add(k, v) }

    val l2pInst = Program.probe()
    val l2p = wall(timed("core.l2p.ms")(Program.l2p(g, ql, qr, p, st.index, l2pInst)))
    add("core.l2p.non_refine.ms", samples("core.l2p.ms").last -
      (Program.queryDistMs(l2pInst) + Program.leaderUpdateMs(l2pInst) + Program.butterflyMs(l2pInst)))

    val ctcInst = Program.probe()
    val ctc = wall(timed("baseline.ctc.ms")(Program.ctc(g, q.ids, st.truss, ctcInst)))
    add("baseline.ctc.rounds", Program.rounds(ctcInst))
    val psaInst = Program.probe()
    val psa = wall(timed("baseline.psa.ms")(Program.psa(g, q.ids, psaInst)))
    add("baseline.psa.rounds", Program.rounds(psaInst))
    val mq = inputs.mQueries(j)
    val mInst = Program.probe()
    val mbcc = wall(timed("core.mbcc.ms")(Program.mbcc(g, mq.ids, st.ks(j), Program.b(p), mInst)))
    add("core.mbcc.butterfly_calls", Program.butterflyCalls(mInst))
    add("core.mbcc.rounds", Program.rounds(mInst))

    val untracedMs = Seq("online_ms", "lp_ms", "l2p_ms", "ctc_ms", "psa_ms", "mbcc_ms").map(latency(_)(j).last).sum
    add("trace.overhead_ms", tracedMs - untracedMs)

    val tracedAnswers = Seq(online, lp, l2p, ctc, psa, mbcc)
    for (((t, u), name) <- tracedAnswers.zip(plain.all).zip(MethodNames))
      if (u.isDefined && u.get != t) fail(s"traced $name differs from untraced on q$j")

    replay(st, j, cand)
  }

  /** Times each LocalGraph primitive on the inputs the methods pass it. */
  private def replay(st: State, j: Int, cand: Option[Program.Cand]): Unit = {
    val g = st.g
    val q = inputs.queries(j); val p = st.params(j)
    val (ql, qr) = (Program.indexOf(g, q.ids(0)), Program.indexOf(g, q.ids(1)))
    val leftMask = Program.labelMask(g, Program.labelOf(g, q.ids(0)))
    val rightMask = Program.labelMask(g, Program.labelOf(g, q.ids(1)))

    // FindG0's whole-graph calls
    val leftCore = timed("graph.kCoreMask.ms")(Program.kCoreMask(g, Program.k1(p), leftMask))
    val rightCore = timed("graph.kCoreMask.ms")(Program.kCoreMask(g, Program.k2(p), rightMask))
    if (leftCore(ql) && rightCore(qr)) {
      val l = timed("graph.componentOf.ms")(Program.componentOf(g, ql, leftCore))
      val r = timed("graph.componentOf.ms")(Program.componentOf(g, qr, rightCore))
      timed("graph.induced.ms")(Program.induced(g, Array.tabulate(Program.n(g))(v => l(v) || r(v))))
    }
    // PSA's whole-graph coreness and defaultParams' label-side coreness
    timed("graph.coreness.whole.ms")(Program.coreness(g, null))
    timed("graph.coreness.label.ms")(Program.coreness(g, leftMask))

    // Refine's per-round primitives, on G0
    cand.foreach { c =>
      val g0 = Program.g0(c)
      val n0 = Program.n(g0)
      add("core.g0_vertices", n0)
      add("core.g0_frac", n0.toDouble / Program.n(g))
      val (cql, _) = Program.candQueries(c)
      val l0 = Program.labelMask(g0, Program.labelOf(g0, q.ids(0)))
      val r0 = Program.labelMask(g0, Program.labelOf(g0, q.ids(1)))
      timed("graph.butterflyDegrees.ms")(Program.butterflyDegrees(g0, l0, r0))
      // wedges l-r-l and r-l-r: sum over vertices of d(d-1), d = cross degree
      var wedges = 0L
      for (v <- 0 until n0 if l0(v) || r0(v)) {
        val other = if (l0(v)) r0 else l0
        val d = Program.neighbors(g0, v).count(other).toLong
        wedges += d * (d - 1)
      }
      add("graph.butterflyDegrees.wedges", wedges)
      add("graph.butterflyDegrees.ns_per_wedge", samples("graph.butterflyDegrees.ms").last * 1e6 / math.max(1L, wedges))
      val dist = timed("graph.bfs.ms")(Program.bfs(g0, cql))
      var arcs = 0L
      for (v <- 0 until n0 if dist(v) != Program.Inf) arcs += Program.neighbors(g0, v).length
      add("graph.bfs.edges", arcs / 2)
    }
  }

  // ---- the Spark phase ----

  private def sparkPhase(sp: SparkState): Unit = {
    val p = SparkParams
    val (ql, qr) = (inputs.sparkQuery.ids(0), inputs.sparkQuery.ids(1))
    val t0 = now()
    val res =
      try Some(Program.sparkLp(sp.graph, ql, qr, p, Program.probe()))
      catch { case e: Exception => fail(s"spark lp threw ${e.getClass.getSimpleName}: ${e.getMessage}"); None }
    add("spark.query_s", ms(t0) / 1e3)
    attempted += 1
    val local = Program.lp(sp.local, ql, qr, p, Program.probe())
    res.foreach(r => if (r != local) fail("spark lp differs from local lp"))

    val l = new SparkFiles
    sp.spark.sparkContext.addSparkListener(l)
    guarded("traced spark lp") {
      val inst = Program.probe()
      val t1 = now()
      val (cand, files) = l.measure(sp.spark.sparkContext)(Program.sparkFindG0(sp.graph, ql, qr, p, inst))
      add("spark.findG0.ms", ms(t1))
      add("spark.findG0.jobs", files.values.map(_.jobs).sum)
      for (f <- SparkFiles.Files) {
        val a = files.getOrElse(f, new l.Acc)
        add(s"spark.$f.jobs", a.jobs); add(s"spark.$f.stages", a.stages); add(s"spark.$f.tasks", a.tasks)
        add(s"spark.$f.task_ms", a.taskMs); add(s"spark.$f.shuffle_bytes", a.shuffleBytes)
      }
      val other = files.keySet -- SparkFiles.Files
      if (other.nonEmpty) prov("spark_other_files") = other.toSeq.sorted
      val tr = cand.flatMap(c => timed("spark.driver_refine.ms")(Program.refine(c, p, inst, naive = false)))
      if (res.isDefined && res.get != tr) fail("traced spark lp differs from untraced")
    }
  }

  // ---- the run ----

  def go(): Unit = {
    // Set-up runs once before the warm-up and again between timed passes,
    // so that its samples, like the latencies, spread over the run.
    var st = timedSetup()
    val tWarmup = now()
    for (j <- inputs.queries.indices.take(WarmupQueries)) {
      if (j % ReferenceEvery == 0) HostSpeed.ms()
      untraced(st, j, record = false)
    }
    phase("warmup_s", tWarmup)
    add("setup_heap_mb", retainedHeapMb())

    // Whole passes until --seconds have gone by (two in a traced run, whose
    // overhead is measured against the second). The first pass's answers go
    // through the gate; later passes must return the same answers.
    val first = new Array[Answers](inputs.queries.length)
    val tPasses = now()
    var passes = 0
    while (passes < 2 || (!args.trace && ms(tPasses) / 1e3 < args.seconds)) {
      if (passes > 0) st = timedSetup()
      val ref = mutable.ArrayBuffer[Double]()
      reference += ref
      for (j <- inputs.queries.indices) {
        if (j % ReferenceEvery == 0) ref += HostSpeed.ms()
        val a = untraced(st, j, record = true)
        if (passes == 0) { gate(st, j, a); first(j) = a }
        else for (((x, y), name) <- a.all.zip(first(j).all).zip(MethodNames) if x != y)
          fail(s"$name q$j: answer changed between passes")
      }
      passes += 1
    }
    phase("timed_passes_s", tPasses)
    prov("passes") = passes

    val sp = if (!args.trace) None else {
      for (j <- inputs.queries.indices) guarded(s"traced q$j")(traced(st, j, first(j)))
      val t0 = now()
      val sp = sparkSetup(st)
      add("spark.setup_s", ms(t0) / 1e3)
      sparkPhase(sp)
      phase("spark_s", t0)
      Some(sp)
    }
    provenance(st, sp)
    sp.foreach(_.spark.stop())
  }

  /** Per timed pass, the times of the reference work run in it. */
  private val reference = mutable.ArrayBuffer[mutable.ArrayBuffer[Double]]()
  private val phases = mutable.LinkedHashMap[String, Double]()
  private def phase(name: String, t0: Long): Unit = phases(name) = ms(t0) / 1e3

  private def provenance(st: State, sp: Option[SparkState]): Unit = {
    prov("phase_wall_s") = phases
    val g = st.g
    prov("workload") = args.workload
    prov("seed") = args.seed
    prov("vertices") = Program.n(g)
    prov("edges") = Program.edgeCount(g)
    prov("labels") = Program.labelCount(g)
    prov("query_pool") = inputs.queries.length
    prov("mbcc_m") = inputs.mQueries.head.ids.length
    prov("params_histogram") = st.params
      .groupBy(p => s"(${Program.k1(p)},${Program.k2(p)},${Program.b(p)})")
      .map { case (k, v) => k -> v.length }
    val g0Frac = inputs.queries.indices.take(30).flatMap { j =>
      val q = inputs.queries(j)
      Program.findG0(g, q.ids(0), q.ids(1), st.params(j), Program.probe())
        .map(c => Program.n(Program.g0(c)).toDouble / Program.n(g))
    }
    prov("g0_frac_median_first_30") = if (g0Frac.isEmpty) 0.0 else median(g0Frac)
    prov("compute_diameter") = false
    if (sp.isEmpty) prov("spark") = "the Spark phase runs in traced runs only"
    sp.foreach { sp =>
      prov("spark_graph_vertices") = Program.n(sp.local)
      prov("spark_graph_edges") = Program.edgeCount(sp.local)
      val conf = sp.spark.conf
      prov("spark_master") = sp.spark.sparkContext.master
      prov("spark_shuffle_partitions") = conf.get("spark.sql.shuffle.partitions")
      prov("spark_aqe") = conf.get("spark.sql.adaptive.enabled")
      prov("spark_broadcast_threshold") = conf.get("spark.sql.autoBroadcastJoinThreshold")
    }
    prov("jvm_max_heap_mb") = Runtime.getRuntime.maxMemory / (1024 * 1024)
    prov("nproc") = Runtime.getRuntime.availableProcessors
    prov("trace") = args.trace
  }

  def result: Map[String, Any] = Map(
    "samples" -> samples.map { case (k, v) => k -> v.toSeq },
    "reference" -> reference.map(_.toSeq),
    "latency" -> latency.map { case (k, byQuery) => k -> byQuery.toSeq.sortBy(_._1).map(_._2.toSeq) },
    "attempted" -> attempted,
    "quality_attempts" -> qualityAttempts,
    "answered" -> answered,
    "failed" -> failed,
    "failures" -> failures.toSeq,
    "answers" -> java.security.MessageDigest.getInstance("SHA-256")
      .digest(answerLog.mkString("\n").getBytes("UTF-8")).map(b => f"$b%02x").mkString,
    "provenance" -> prov)
}
