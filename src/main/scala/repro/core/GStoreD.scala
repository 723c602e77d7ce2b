package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.part.DistributedGraph

/** Optimization levels matching the §VIII-C ablation:
  * `Basic` = VLDBJ'16 framework (no LEC, no candidate exchange);
  * `LA` = + LEC-feature-based assembly (Alg. 3);
  * `LO` = + LEC-feature-based optimization/pruning (Alg. 2);
  * `Full` = + assembling variables' internal candidates (Alg. 4).
  */
sealed trait OptLevel { def name: String }
object OptLevel {
  case object Basic extends OptLevel { val name = "gStoreD-Basic" }
  case object LA extends OptLevel { val name = "gStoreD-LA" }
  case object LO extends OptLevel { val name = "gStoreD-LO" }
  case object Full extends OptLevel { val name = "gStoreD" }
  val all: Vector[OptLevel] = Vector(Basic, LA, LO, Full)
}

/** Per-stage metrics, mirroring the columns of Tables I–III. */
final case class Stats(
    candTimeMs: Long = 0,
    candShipmentBytes: Long = 0,
    lpmTimeMs: Long = 0,
    lecTimeMs: Long = 0,
    lecShipmentBytes: Long = 0,
    assemblyTimeMs: Long = 0,
    numLpms: Long = 0,
    numLpmsKept: Long = 0,
    numFeatures: Long = 0,
    numMatches: Long = 0,
    numCrossingMatches: Long = 0,
    asmPairTests: Long = 0,
    asmDnf: Boolean = false,
    starFastPath: Boolean = false,
) {
  def partialEvalTimeMs: Long = candTimeMs + lpmTimeMs + lecTimeMs
  def totalTimeMs: Long = partialEvalTimeMs + assemblyTimeMs
}

final case class QueryResult(matches: DataFrame, stats: Stats)

/** The distributed engine: gStore-style attribute folding, partial
  * evaluation on Spark (one task per resident fragment ≙ one site), LEC
  * shipping/pruning and assembly at the coordinator (the driver), star
  * queries short-circuited to a pure Catalyst join plan per §VIII-B.
  *
  * A result's `matches` is a frame over rows already collected to the
  * driver: the engine leaves nothing cached behind a query.
  */
object GStoreD {

  def evaluate(
      dg: DistributedGraph,
      query: QueryGraph,
      opt: OptLevel = OptLevel.Full,
      bitLen: Int = 1 << 14,
      maxPMs: Int = 5_000_000,
      basicBudget: Long = 20_000_000L,
  ): QueryResult = {
    val spark = dg.spark
    val vars = query.variables
    // core.variables == query.variables (folding drops no variables)
    val schema = StructType(vars.map(v => StructField(v, LongType, nullable = false)))
    def result(rows: Seq[Row], stats: Stats): QueryResult = {
      val rdd = spark.sparkContext.parallelize(rows, math.max(1, spark.sparkContext.defaultParallelism / 4))
      QueryResult(spark.createDataFrame(rdd, schema), stats)
    }
    // star and all-attribute queries: one Catalyst plan, collected once
    def collected(df: => DataFrame): QueryResult = {
      val t0 = System.nanoTime()
      val rows = df.distinct().collect().toSeq
      result(rows, Stats(lpmTimeMs = (System.nanoTime() - t0) / 1000000, numMatches = rows.size, starFastPath = true))
    }

    val dict = dg.graph.dict
    val folded = query.fold(dg.attrPreds)

    // encode all attribute constraints up-front; a missing constant => empty
    val encodedCons: Option[Map[Term, Seq[(Long, Long)]]] = {
      val entries = folded.constraints.toSeq.map { case (t, cs) =>
        val ids = cs.map { case (p, o) => (dict.idOpt(p), dict.idOpt(o)) }
        if (ids.exists(x => x._1.isEmpty || x._2.isEmpty)) None
        else Some(t -> ids.map { case (p, o) => (p.get, o.get) })
      }
      if (entries.exists(_.isEmpty)) None else Some(entries.flatten.toMap)
    }
    if (encodedCons.isEmpty) return result(Nil, Stats(starFastPath = true))
    val cons = encodedCons.get

    folded.core match {
      case None =>
        // every pattern folded away: a single-vertex signature scan
        require(cons.size == 1, s"unsupported all-attribute query over ${cons.size} subjects")
        val (term, cs) = cons.head
        scanEval(dg, term, cs) match {
          case Some(d) =>
            term match {
              case Term.Var(n) => collected(d.withColumnRenamed("__c", n).select(vars.map(col): _*))
              case Term.Const(_) => // boolean query: non-empty scan, no variables
                collected(d.limit(1).drop("__c"))
            }
          case None => result(Nil, Stats(starFastPath = true))
        }

      case Some(core) =>
        // constraints on terms outside the core: only constant subjects are
        // supported (a pure existence pre-check)
        val (onCore, offCore) = cons.partition { case (t, _) => core.vertexTerms.contains(t) }
        offCore.foreach {
          case (Term.Const(u), cs) =>
            val sid = dict.idOpt(u).getOrElse(return result(Nil, Stats(starFastPath = true)))
            if (scanExistence(dg, sid, cs).isEmpty) return result(Nil, Stats(starFastPath = true))
          case (Term.Var(n), _) =>
            throw new UnsupportedOperationException(
              s"constraint on variable ?$n disconnected from the entity core")
        }
        core.encode(dict) match {
          case None => result(Nil, Stats())
          case Some(q0) =>
            val consByIdx = onCore.map { case (t, cs) => core.vertexTerms.indexOf(t) -> cs }
            val q = q0.copy(constraints = consByIdx)
            if (core.isStar) collected(starEval(dg, core, q))
            else {
              val (rows, stats) = evaluateGeneral(dg, q, opt, bitLen, maxPMs, basicBudget)
              result(rows, stats)
            }
        }
    }
  }

  /** Internal vertices carrying all attribute edges `(p, o)` in `cs`:
    * DataFrame with column `__c`. `None` when a filter id is absent.
    */
  private def scanEval(dg: DistributedGraph, term: Term, cs: Seq[(Long, Long)]): Option[DataFrame] = {
    import dg.spark.implicits._
    val dict = dg.graph.dict
    val base = cs.map { case (p, o) => dg.attrSubjects(p, o).select($"s".as("__c")) }
      .reduce((a, b) => a.join(b, Seq("__c")))
    term match {
      case Term.Const(u) =>
        dict.idOpt(u).map(id => base.filter($"__c" === id))
      case Term.Var(_) => Some(base)
    }
  }

  private def scanExistence(dg: DistributedGraph, sid: Long, cs: Seq[(Long, Long)]): Option[Unit] = {
    import dg.spark.implicits._
    val ok = cs.forall { case (p, o) =>
      !dg.fragTriples.filter($"s" === sid && $"p" === p && $"o" === o).isEmpty
    }
    if (ok) Some(()) else None
  }

  /** §VIII-B star fast path: crossing edges are replicated, so every match
    * of a star query lies wholly in the center's owner fragment; evaluation
    * is a Catalyst join pipeline with no communication and no LPMs.
    * Center constraints filter per fragment; leaf-variable constraints join
    * on the value (their attribute edges live at the leaf's owner).
    */
  private[core] def starEval(
      dg: DistributedGraph,
      core: QueryGraph,
      q: EncodedQuery,
  ): DataFrame = {
    import dg.spark.implicits._
    val center = core.starCenter.get
    val centerTerm = core.vertexTerms(center)

    val parts = q.edges.map { e =>
      var df = dg.fragTriples.toDF()
      if (e.predId >= 0) df = df.filter($"p" === e.predId)
      val centerIsSrc = e.src == center
      df =
        if (centerIsSrc) df.filter($"sFrag" === $"frag")
        else df.filter($"oFrag" === $"frag")
      val cq = q.vertices(center)
      if (!cq.isVar) df = df.filter((if (centerIsSrc) $"s" else $"o") === cq.constId)
      if (e.src == e.dst) df = df.filter($"s" === $"o") // self-loop pattern
      val otherIdx = if (centerIsSrc) e.dst else e.src
      val cols = Seq($"frag", (if (centerIsSrc) $"s" else $"o").as("__c"))
      if (otherIdx == center) df.select(cols: _*)
      else {
        val oq = q.vertices(otherIdx)
        val oCol = if (centerIsSrc) $"o" else $"s"
        if (oq.isVar) df.select(cols :+ oCol.as(oq.varName): _*)
        else df.filter(oCol === oq.constId).select(cols: _*)
      }
    }
    val consParts = q.constraints.toSeq.flatMap { case (vIdx, cs) =>
      cs.map { case (p, o) =>
        val base = dg.attrSubjects(p, o)
        if (vIdx == center) base.select($"frag", $"s".as("__c")).distinct()
        else base.select($"s".as(q.vertices(vIdx).varName)).distinct()
      }
    }
    val joined = (parts ++ consParts).reduce { (a, b) =>
      a.join(b, a.columns.intersect(b.columns).toSeq)
    }
    val selectCols = core.variables.map { v =>
      centerTerm match {
        case Term.Var(n) if n == v => col("__c").as(v)
        case _                     => col(v)
      }
    }
    joined.select(selectCols: _*)
  }

  /** Alg. 4, then Def.-5 partial evaluation and Alg. 2 pruning as at most
    * two jobs over one per-query RDD of the sites' `LocalMatcher` output,
    * then assembly at the coordinator.
    */
  private def evaluateGeneral(
      dg: DistributedGraph,
      q: EncodedQuery,
      opt: OptLevel,
      bitLen: Int,
      maxPMs: Int,
      basicBudget: Long,
  ): (Seq[Row], Stats) = {
    // -- stage 1: assembling variables' internal candidates (Full only) ----
    val cand =
      if (opt == OptLevel.Full) CandidateExchange.run(dg, q, bitLen)
      else CandidateExchange.Result(CandidateBits.empty, 0L, 0L)

    // -- stage 2: local partial match computation (one task per site) ------
    val t1 = System.nanoTime()
    val bits = cand.bits
    val full = q.fullMask
    val sites = dg.fragTriples.rdd
      .mapPartitionsWithIndex((f, it) => LocalMatcher.run(f, it, q, bits, maxPMs).iterator)
      .cache()
    try {
      // LO/Full sites ship their complete local matches, LPM count and
      // deduplicated LEC features, and later only the LPMs that survive
      // pruning. Basic and LA collect every LPM as part of assembly; LA
      // derives its features from them at the coordinator, with no extra
      // communication.
      val pruned = opt == OptLevel.LO || opt == OptLevel.Full
      val (complete, numLpms, lpms, siteFeatures) =
        if (pruned) {
          val perSite = sites.mapPartitions { it =>
            val (complete, lpms) = it.toVector.partition(_.isCompleteLocal(full))
            Iterator((complete, lpms.size, lpms.map(LecFeature.of).distinct))
          }.collect()
          (perSite.flatMap(_._1).toIndexedSeq, perSite.map(_._2.toLong).sum,
            IndexedSeq.empty[PMRow], perSite.flatMap(_._3).toIndexedSeq)
        } else {
          val (complete, lpms) = sites.collect().toIndexedSeq.partition(_.isCompleteLocal(full))
          (complete, lpms.size.toLong, lpms, IndexedSeq.empty[LecFeature])
        }
      val lpmTimeMs = (System.nanoTime() - t1) / 1000000

      // -- stage 3: LEC features and pruning (Alg. 2) -----------------------
      val t2 = System.nanoTime()
      val (features, combos, kept) = opt match {
        case OptLevel.Basic => (IndexedSeq.empty[LecFeature], None, lpms)
        case OptLevel.LA =>
          val features = lpms.map(LecFeature.of).distinct
          (features, Some(LecPruning.combos(q, features)), lpms)
        case OptLevel.LO | OptLevel.Full =>
          val combos = LecPruning.combos(q, siteFeatures)
          val survB = dg.spark.sparkContext.broadcast(combos.surviving.map(siteFeatures))
          val kept =
            try sites.filter(pm => !pm.isCompleteLocal(full) && survB.value.contains(LecFeature.of(pm)))
              .collect().toIndexedSeq
            finally survB.destroy()
          (siteFeatures, Some(combos), kept)
      }
      val lecTimeMs = if (pruned) (System.nanoTime() - t2) / 1000000 else 0L
      val lecShipment = if (pruned) features.map(_.byteSize(q.n)).sum else 0L

      // -- stage 4: assembly at the coordinator -----------------------------
      val t3 = if (pruned) System.nanoTime() else t2
      val (crossMatches, asmStats) = combos match {
        case None    => Assembly.basic(q, kept, basicBudget)
        case Some(c) => Assembly.lec(q, kept, features, c)
      }
      val localMatches = complete.map(_.bind.toVector)
      val varIdx = (0 until q.n).filter(q.vertices(_).isVar)
      val allMatches = (crossMatches ++ localMatches).map(b => varIdx.map(b)).distinct
      val crossDistinct = crossMatches.map(b => varIdx.map(b)).distinct
      val assemblyTimeMs = (System.nanoTime() - t3) / 1000000

      (
        allMatches.map(m => Row.fromSeq(m)),
        Stats(
          candTimeMs = cand.timeMs,
          candShipmentBytes = cand.shipmentBytes,
          lpmTimeMs = lpmTimeMs,
          lecTimeMs = lecTimeMs,
          lecShipmentBytes = lecShipment,
          assemblyTimeMs = assemblyTimeMs,
          numLpms = numLpms,
          numLpmsKept = kept.size,
          numFeatures = features.size,
          numMatches = allMatches.size,
          numCrossingMatches = crossDistinct.size,
          asmPairTests = asmStats.pairTests,
          asmDnf = asmStats.dnf,
        ),
      )
    } finally sites.unpersist()
  }
}
