package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.bench.Workloads.Workload
import repro.core._
import repro.part.{DistributedGraph, FragTriple, Partitioners}
import repro.rdf.LubmData
import scala.collection.mutable

/** The repository's benchmark: one workload per invocation.
  *
  * A run generates the LUBM dataset from the seed, computes every query's
  * answer on DuckDB, and builds the fragment store once untimed (Spark's
  * first job). It then rebuilds and materialises the store [[SetupReps]]
  * times (the median is `setup_s`), warms up with a fixed number of whole
  * passes of the query mix on the last store, and runs the mix in order
  * through `GStoreD.evaluate` from one client thread in a closed loop, in
  * whole rounds, until [[MinRounds]] rounds are done and `seconds` have
  * passed. Each timed result is collected at the caller, compared with
  * DuckDB outside the timer, and released.
  *
  * With `trace` on, some rounds of the mix are traced: they record spans,
  * count Spark work per job group through a listener, and re-run each
  * layer's public entry point from here to time and count it. The traced
  * run reports the per-layer metrics instead of the end-to-end ones.
  */
object Bench {

  final case class Config(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      spansDir: java.nio.file.Path = java.nio.file.Paths.get("perfbench", "target", "spans"),
  )

  /** One benchmark workload: a fixed query sequence over the LUBM store. */
  final case class Mix(name: String, queries: Vector[String], warmPasses: Int)

  val mixes: Vector[Mix] = Vector(
    // general path: candidate exchange is about 2/3 of the wall time, LEC and
    // assembly most of the rest; unselective (7-10k LPMs) and selective
    // (0-2k LPMs) queries are mixed
    Mix("lubm-complex", Vector("LQ1", "LQ3", "LQ6", "LQ7"), warmPasses = 1),
    // star fast path over the same store: none of the layers past the store
    // run, so a change to them should leave it unchanged, and a store that
    // speeds the general path but slows these scans shows here
    Mix("lubm-star", Vector("LQ2", "LQ4", "LQ5"), warmPasses = 2),
  )

  // Pinned deployment. shuffle.partitions moves the general path by 3x
  // between 8 and Spark's default 200, so nothing here is left at a default.
  val Master = "local[4]"
  val ShufflePartitions = 8
  val BroadcastThreshold = -1L
  val Adaptive = false
  val LogLevel = "WARN"
  val K = 12
  val BitLen: Int = 1 << 14
  val SetupReps = 3
  // two rounds take a run's query-time spread from about 10% to about 6%
  // across seeds on lubm-complex (4 cores), where one round is 4 queries
  val MinRounds = 2

  /** The `bench`-tier LUBM dataset of `repro.bench.Workloads`, with the
    * generator seed offset by the benchmark seed (0 reproduces it).
    */
  def lubm(seed: Long): Workload = {
    val spec = LubmData.Spec(nUniv = 60, gradsPerDept = 12, undergradsPerDept = 25, seed = 7 + seed)
    Workload("LUBM", LubmData.graph(spec), LubmData.queries, LubmData.attributePredicates)
  }

  def session(): SparkSession = {
    val s = SparkSession.builder()
      .master(Master)
      .appName("perfbench")
      .config("spark.ui.enabled", value = false)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", BroadcastThreshold)
      .config("spark.sql.adaptive.enabled", Adaptive)
      .getOrCreate()
    s.sparkContext.setLogLevel(LogLevel)
    s
  }

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(correct: Boolean, attempted: Int, failed: Int, metrics: Vector[Metric])

  def main(args: Array[String]): Unit = {
    val cfg = parse(args)
    val spark = session()
    val result =
      try run(spark, cfg, line => println(line))
      finally spark.stop()
    println(json(result))
    sys.exit(0)
  }

  def parse(args: Array[String]): Config = {
    def fail(msg: String): Nothing = {
      System.err.println(s"$msg\nusage: --workload <${mixes.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => fail(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    if (unknown.nonEmpty) fail(s"unknown option: ${unknown.mkString(", ")}")
    val workload = kv.getOrElse("workload", fail("--workload is required"))
    if (!mixes.exists(_.name == workload)) fail(s"unknown workload: $workload")
    def num(k: String, default: String): Long =
      kv.getOrElse(k, default).toLongOption.getOrElse(fail(s"--$k needs a whole number"))
    val seconds = num("seconds", "10")
    if (seconds < 1 || seconds > 600) fail("--seconds must be in [1, 600]")
    val trace = num("trace", "0")
    if (trace != 0 && trace != 1) fail("--trace must be 0 or 1")
    Config(workload, num("seed", "0"), seconds.toInt, trace == 1)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private def cachedMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / (1024.0 * 1024.0)

  /** Runs one workload; `log` receives the human-readable report. */
  def run(spark: SparkSession, cfg: Config, log: String => Unit): Result = {
    val mix = mixes.find(_.name == cfg.workload).get
    val sc = spark.sparkContext
    val jvmStartS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val phase0 = System.nanoTime()
    def phaseS = (System.nanoTime() - phase0) / 1e9
    val w = lubm(cfg.seed)
    val genS = phaseS
    val queries = mix.queries.map(n => n -> w.queries.find(_._1 == n).get._2)
    val expected = Reference.answers(w.graph, queries)
    val refS = phaseS - genS

    val counter = if (cfg.trace) Some(new SparkCounter(sc)) else None
    counter.foreach(sc.addSparkListener)
    val tracer = new Tracer
    val layers = new LayerMetrics

    def buildStore(): DistributedGraph = {
      val g = DistributedGraph.build(spark, w.graph, Partitioners.Hash, K, w.attrPreds)
      g.fragTriples.count()
      g
    }
    // untimed: Spark's first job builds this store, the timed builds follow it
    var dg = buildStore()
    var fragments = Vector.empty[(Int, Vector[FragTriple])]

    val failures = mutable.LinkedHashMap(mix.queries.map(_ -> 0): _*)
    var correct = true
    var qid = 0

    /** Evaluates one query; returns its wall time (ms) and whether it was verified. */
    def execute(name: String, q: QueryGraph, traced: Boolean): (Double, Boolean) = {
      qid += 1
      val id = qid
      def group[A](layer: String)(body: => A): A =
        if (!traced) body
        else {
          sc.setJobGroup(s"q$id.$layer", layer)
          try tracer.span(layer)(body)
          finally sc.clearJobGroup()
        }
      val bean = ManagementFactory.getThreadMXBean
      var cpuNs = 0L
      var collectMs = 0.0
      val persistedBefore = sc.getPersistentRDDs.size
      val t0 = System.nanoTime()
      val attempt = scala.util.Try {
        val body = () => {
          val cpu0 = bean.getCurrentThreadCpuTime
          val res = group("engine")(GStoreD.evaluate(dg, q, OptLevel.Full, BitLen))
          cpuNs = bean.getCurrentThreadCpuTime - cpu0
          val c0 = System.nanoTime()
          val rows = group("result")(res.matches.collect())
          collectMs = (System.nanoTime() - c0) / 1e6
          (res, rows)
        }
        if (traced) tracer.query(id, s"query:$name")(body()) else body()
      }
      val ms = (System.nanoTime() - t0) / 1e6
      val ok = attempt match {
        case scala.util.Failure(e) =>
          log(s"$name threw: $e")
          false
        case scala.util.Success((res, rows)) =>
          res.matches.unpersist(blocking = true)
          val leaked = sc.getPersistentRDDs.size - persistedBefore
          val got = Reference.ofRows(q, res.matches.columns.toIndexedSeq, rows)
          val same = got == expected(name)
          if (!same) log(s"$name: ${got.size} rows differ from DuckDB's ${expected(name).size}")
          if (res.stats.asmDnf) log(s"$name: assembly did not finish")
          if (traced) {
            if (!recordLayers(id, name, q, res, rows.length, collectMs, cpuNs, leaked)) correct = false
          }
          same && !res.stats.asmDnf
      }
      if (!ok) failures(name) += 1
      (ms, ok)
    }

    /** Records a traced query's engine and result metrics, then re-runs each
      * layer of a general-path query from here; false if the re-run disagrees
      * with the engine's `Stats`.
      */
    def recordLayers(id: Int, name: String, q: QueryGraph, res: QueryResult, rows: Int,
        collectMs: Double, cpuNs: Long, leaked: Int): Boolean = {
      val s = res.stats
      layers.query()
      layers.add("result.collect_ms", collectMs)
      layers.add("result.rows", rows)
      layers.add("engine.driver_cpu_ms", cpuNs / 1e6)
      layers.add("engine.stage_cand_ms", s.candTimeMs)
      layers.add("engine.stage_lpm_ms", s.lpmTimeMs)
      layers.add("engine.stage_lec_ms", s.lecTimeMs)
      layers.add("engine.stage_asm_ms", s.assemblyTimeMs)
      layers.add("engine.leaked_rdds", leaked)
      var ok = true
      if (!s.starFastPath) encoded(dg, q).foreach { eq =>
        tracer.query(id, s"layers:$name") {
          sc.setJobGroup(s"q$id.cand", "cand")
          val cand =
            try tracer.span("cand")(CandidateExchange.run(dg, eq, BitLen))
            finally sc.clearJobGroup()
          layers.add("cand.shipment_kb", cand.shipmentBytes / 1024.0)
          val perFrag = tracer.span("lpm") {
            fragments.map { case (f, trips) =>
              val t0 = System.nanoTime()
              val pms = tracer.span("lpm.frag")(LocalMatcher.run(f, trips.iterator, eq, cand.bits))
              (pms.filterNot(_.isCompleteLocal(eq.fullMask)), (System.nanoTime() - t0) / 1e6)
            }
          }
          val lpms = perFrag.flatMap(_._1)
          layers.add("lpm.count", lpms.size)
          layers.add("lpm.max_frag_ms", perFrag.map(_._2).max)
          layers.add("lpm.max_frag_count", perFrag.map(_._1.size).max)
          val (features, combos, kept) = tracer.span("lec") {
            val features = lpms.map(LecFeature.of).distinct
            val t0 = System.nanoTime()
            val combos = tracer.span("lec.combos")(LecPruning.combos(eq, features))
            layers.add("lec.combos_ms", (System.nanoTime() - t0) / 1e6)
            val surviving = combos.surviving.map(features)
            (features, combos, lpms.filter(pm => surviving.contains(LecFeature.of(pm))))
          }
          layers.add("lec.features", features.size)
          layers.add("lec.join_tests", combos.stats.joinTests)
          layers.add("lec.states", combos.stats.statesExplored)
          layers.add("lec.complete_combos", combos.stats.completeCombos)
          layers.add("lec.kept", kept.size)
          layers.add("lec.shipment_kb", features.map(_.byteSize(eq.n)).sum / 1024.0)
          val (matches, asm) = tracer.span("asm")(Assembly.lec(eq, kept, features, combos))
          layers.add("asm.pair_tests", asm.pairTests)
          layers.add("asm.matches", asm.numMatches)
          val varIdx = (0 until eq.n).filter(eq.vertices(_).isVar)
          val crossDistinct = matches.map(m => varIdx.map(m)).distinct.size
          val agree = Seq(
            "LPMs" -> (lpms.size.toLong, s.numLpms),
            "features" -> (features.size.toLong, s.numFeatures),
            "kept LPMs" -> (kept.size.toLong, s.numLpmsKept),
            "crossing matches" -> (crossDistinct.toLong, s.numCrossingMatches))
          agree.foreach { case (what, (mine, engine)) =>
            if (mine != engine) {
              log(s"$name: layer replay found $mine $what, the engine $engine")
              ok = false
            }
          }
        }
      }
      counter.foreach(_.drain())
      counter.foreach { c =>
        for (layer <- Seq("engine", "cand")) {
          val n = c.counts(s"q$id.$layer")
          layers.add(s"$layer.spark_jobs", n.jobs)
          layers.add(s"$layer.spark_tasks", n.tasks)
          layers.add(s"$layer.shuffle_kb", n.shuffleBytes / 1024.0)
          if (layer == "engine") layers.add("engine.executor_run_ms", n.executorRunMs)
        }
        layers.sameJobs(name, c.counts(s"q$id.engine").jobs)
      }
      ok
    }

    // setup_s: rebuilds right after the untimed first build, so the median
    // measures the store and not Spark's first job; the last build is the
    // store the queries run on
    var storeMb = 0.0
    val setupMs = (0 until SetupReps).map { r =>
      dg.fragTriples.unpersist(blocking = true)
      val before = cachedMb(spark)
      if (cfg.trace) sc.setJobGroup(s"part.$r", "fragment store build")
      val t0 = System.nanoTime()
      dg = tracer.query(-1, "part")(buildStore())
      val ms = (System.nanoTime() - t0) / 1e6
      sc.clearJobGroup()
      storeMb = cachedMb(spark) - before
      ms
    }

    // warm-up (untimed, still verified): a fixed number of whole passes of
    // the mix on the store the timed phase uses. Later executions of a query
    // keep getting faster until the JIT and Spark's codegen cache have seen
    // it, and the first queries on a new store are slower still
    val warm0 = phaseS
    (0 until mix.warmPasses).foreach { _ =>
      queries.foreach { case (n, q) => if (!execute(n, q, traced = false)._2) correct = false }
    }
    log(f"phases: jvm+spark start $jvmStartS%.1f s, data $genS%.1f s, DuckDB reference $refS%.1f s, " +
      f"warm-up ${mix.warmPasses} passes in ${phaseS - warm0}%.1f s")
    failures.keys.foreach(failures(_) = 0)
    val stored = dg.fragTriples.count()
    val crossing = dg.numCrossingEdges
    if (cfg.trace) fragments = dg.fragTriples.collect().toVector.groupBy(_.frag).toVector.sortBy(_._1)

    val rt = Runtime.getRuntime
    log(s"env: master=$Master cores=${rt.availableProcessors} spark=${spark.version} " +
      s"java=${System.getProperty("java.version")} heap_mb=${rt.maxMemory / (1 << 20)} " +
      s"spark.sql.shuffle.partitions=$ShufflePartitions " +
      s"spark.sql.autoBroadcastJoinThreshold=$BroadcastThreshold " +
      s"spark.sql.adaptive.enabled=$Adaptive log=$LogLevel")
    log(s"workload: ${mix.name} seed=${cfg.seed} dataset=${w.name} triples=${w.graph.numTriples} " +
      s"stored_rows=$stored crossing_edges=$crossing k=$K partitioner=${Partitioners.Hash.name} " +
      s"opt=${OptLevel.Full.name} bit_len=$BitLen queries=${mix.queries.mkString(",")}")
    log(f"setup: ${setupMs.map(m => f"$m%.0f").mkString(" / ")} ms over $SetupReps builds, store $storeMb%.2f MB")

    // timed phase: whole rounds of the mix in order, from one client in a
    // closed loop, until MinRounds rounds are done and `seconds` have passed.
    // Whole rounds weigh every query of the mix equally. A traced run traces
    // rounds 0, 3, 4, 7, 8, ..., so drift over the run (late warm-up) cancels
    // in the traced-minus-untraced overhead
    val times = mutable.ArrayBuffer.empty[(String, Double, Boolean)] // (query, ms, traced)
    var cached = -1.0
    var round = 0
    val start = System.nanoTime()
    def elapsedS = (System.nanoTime() - start) / 1e9
    while (round < MinRounds || elapsedS < cfg.seconds) {
      val traced = cfg.trace && (round % 4 == 0 || round % 4 == 3)
      queries.foreach { case (n, q) =>
        val (ms, ok) = execute(n, q, traced)
        times += ((n, ms, traced))
        if (!ok) correct = false
      }
      // storage after the first timed round: after a fixed number of
      // queries (the warm-up passes and one round), so a faster engine
      // running more of them reads the same
      if (round == 0) cached = cachedMb(spark)
      round += 1
    }
    val wallS = elapsedS

    val untraced = times.filterNot(_._3)
    val attempted = times.size
    val failedCount = failures.values.sum
    val perQuery = untraced.groupBy(_._1).view.mapValues(ts => median(ts.map(_._2).toSeq)).toMap
    log(s"timed: ${times.size} queries in $round rounds over ${"%.1f".format(wallS)} s " +
      s"(${untraced.size} untraced); one client, closed loop")
    mix.queries.foreach { n =>
      val ms = untraced.filter(_._1 == n).map(t => f"${t._2}%.0f")
      log(f"  $n: n=${ms.size} p50=${perQuery(n)}%.1f ms failed=${failures(n)} (${ms.mkString(", ")} ms)")
    }
    log(f"failed_frac=${failedCount.toDouble / attempted}%.4f ($failedCount of $attempted)")
    if (failedCount > 0) correct = false
    if (!layers.jobsRepeat) { log("engine Spark job counts differ between runs of one query"); correct = false }
    counter.foreach(sc.removeSparkListener)

    val metrics =
      if (!cfg.trace) {
        val verified = attempted - failedCount
        Vector(
          Metric("query_p50_ms", median(untraced.map(_._2).toSeq), "ms"),
          Metric("slowest_query_p50_ms", perQuery.values.max, "ms"),
          Metric("queries_per_s", verified / (untraced.map(_._2).sum / 1e3), "1/s"),
          Metric("setup_s", median(setupMs) / 1e3, "s"),
          Metric("cached_mb", cached, "MB"),
          Metric("verified_frac", verified.toDouble / attempted, "1"),
        )
      } else {
        val tracedP50 = median(tracer.all.filter(s => s.name.startsWith("query:")).map(_.ms))
        val untracedP50 = median(untraced.map(_._2).toSeq)
        val path = cfg.spansDir.resolve(s"${mix.name}-seed${cfg.seed}.jsonl")
        tracer.write(path)
        log(s"spans: ${tracer.all.size} written to $path")
        Vector(
          Metric("part.build_ms", median(setupMs), "ms"),
          Metric("part.stored_triples", stored.toDouble, "count"),
          Metric("part.crossing_edges", crossing.toDouble, "count"),
          Metric("part.store_mb", storeMb, "MB"),
        ) ++ layers.metrics(tracer) ++ Vector(
          Metric("trace.query_p50_ms", tracedP50, "ms"),
          Metric("trace.untraced_query_p50_ms", untracedP50, "ms"),
          Metric("trace.overhead_ms", tracedP50 - untracedP50, "ms"),
        )
      }
    Result(correct, attempted, failedCount, metrics)
  }

  /** The encoded entity core `GStoreD.evaluate` hands to its layers. */
  def encoded(dg: DistributedGraph, query: QueryGraph): Option[EncodedQuery] = {
    val dict = dg.graph.dict
    val folded = query.fold(dg.attrPreds)
    for {
      core <- folded.core
      q0 <- core.encode(dict)
      cons <- folded.constraints.toSeq.foldLeft(Option(Map.empty[Int, Seq[(Long, Long)]])) {
        case (acc, (t, cs)) =>
          val ids = cs.map { case (p, o) => for (pi <- dict.idOpt(p); oi <- dict.idOpt(o)) yield (pi, oi) }
          val v = core.vertexTerms.indexOf(t)
          if (ids.exists(_.isEmpty)) None
          else if (v < 0) acc
          else acc.map(_ + (v -> ids.flatten))
      }
    } yield q0.copy(constraints = cons)
  }

  def json(r: Result): String = {
    def num(x: Double): String = {
      require(!x.isNaN && !x.isInfinite, s"metric is not a finite number: $x")
      x.toString
    }
    val ms = r.metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Per-layer sums over the traced queries, reported as means per query. */
final class LayerMetrics {
  private val sums = mutable.LinkedHashMap.empty[String, Double]
  private val jobsByQuery = mutable.HashMap.empty[String, mutable.Set[Long]]
  private var queries = 0

  def query(): Unit = queries += 1

  def add(name: String, v: Double): Unit = sums(name) = sums.getOrElse(name, 0.0) + v

  def sameJobs(query: String, jobs: Long): Unit =
    jobsByQuery.getOrElseUpdate(query, mutable.Set.empty) += jobs

  def jobsRepeat: Boolean = jobsByQuery.values.forall(_.size == 1)

  private def sum(n: String) = sums.getOrElse(n, 0.0)

  def metrics(tracer: Tracer): Vector[Bench.Metric] = {
    val spans = tracer.all
    def spanMs(name: String) = spans.filter(_.name == name).map(_.ms).sum
    def per(v: Double) = v / math.max(1, queries)
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    import Bench.Metric
    Vector(
      Metric("cand.ms", per(spanMs("cand")), "ms"),
      Metric("cand.spark_jobs", per(sum("cand.spark_jobs")), "count"),
      Metric("cand.spark_tasks", per(sum("cand.spark_tasks")), "count"),
      Metric("cand.shuffle_kb", per(sum("cand.shuffle_kb")), "KB"),
      Metric("cand.shipment_kb", per(sum("cand.shipment_kb")), "KB"),
      Metric("lpm.enum_ms", per(spanMs("lpm")), "ms"),
      Metric("lpm.max_frag_ms", per(sum("lpm.max_frag_ms")), "ms"),
      Metric("lpm.count", per(sum("lpm.count")), "count"),
      Metric("lpm.max_frag_count", per(sum("lpm.max_frag_count")), "count"),
      Metric("lec.features", per(sum("lec.features")), "count"),
      Metric("lec.combos_ms", per(sum("lec.combos_ms")), "ms"),
      Metric("lec.join_tests", per(sum("lec.join_tests")), "count"),
      Metric("lec.states", per(sum("lec.states")), "count"),
      Metric("lec.complete_combos", per(sum("lec.complete_combos")), "count"),
      Metric("lec.kept_frac", ratio(sum("lec.kept"), sum("lpm.count")), "1"),
      Metric("lec.shipment_kb", per(sum("lec.shipment_kb")), "KB"),
      Metric("asm.ms", per(spanMs("asm")), "ms"),
      Metric("asm.pair_tests", per(sum("asm.pair_tests")), "count"),
      Metric("asm.matches", per(sum("asm.matches")), "count"),
      Metric("asm.matches_per_pair_test", ratio(sum("asm.matches"), sum("asm.pair_tests")), "1"),
      Metric("engine.ms", per(spanMs("engine")), "ms"),
      Metric("engine.spark_jobs", per(sum("engine.spark_jobs")), "count"),
      Metric("engine.spark_tasks", per(sum("engine.spark_tasks")), "count"),
      Metric("engine.shuffle_kb", per(sum("engine.shuffle_kb")), "KB"),
      Metric("engine.driver_cpu_ms", per(sum("engine.driver_cpu_ms")), "ms"),
      Metric("engine.executor_run_ms", per(sum("engine.executor_run_ms")), "ms"),
      Metric("engine.stage_cand_ms", per(sum("engine.stage_cand_ms")), "ms"),
      Metric("engine.stage_lpm_ms", per(sum("engine.stage_lpm_ms")), "ms"),
      Metric("engine.stage_lec_ms", per(sum("engine.stage_lec_ms")), "ms"),
      Metric("engine.stage_asm_ms", per(sum("engine.stage_asm_ms")), "ms"),
      Metric("engine.leaked_rdds", per(sum("engine.leaked_rdds")), "count"),
      Metric("result.collect_ms", per(sum("result.collect_ms")), "ms"),
      Metric("result.rows", per(sum("result.rows")), "count"),
    )
  }
}
