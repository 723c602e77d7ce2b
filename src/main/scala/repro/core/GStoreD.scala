package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.part.DistributedGraph
import scala.collection.mutable
import scala.jdk.CollectionConverters._

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
  * shipping/pruning and assembly at the coordinator (the driver). Star
  * queries skip candidate exchange, LEC and assembly (§VIII-B), and
  * all-attribute queries are one signature scan; each is one pass over the
  * sites.
  *
  * A result's `matches` is a local frame over rows already collected to the
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
    val vars = query.variables
    // folding drops no variables, so the core binds every column
    val schema = StructType(vars.map(v => StructField(v, LongType, nullable = false)))
    def result(rows: Seq[Row], stats: Stats): QueryResult =
      QueryResult(dg.spark.createDataFrame(rows.asJava, schema), stats)
    def empty: QueryResult = result(Nil, Stats(starFastPath = true))
    // star and all-attribute queries: one pass over the sites
    def fastPath(rows: => Seq[Row]): QueryResult = {
      val t0 = System.nanoTime()
      val rs = rows
      result(rs, Stats(lpmTimeMs = (System.nanoTime() - t0) / 1000000, numMatches = rs.size, starFastPath = true))
    }

    val dict = dg.graph.dict
    val folded = query.fold(dg.attrPreds)

    // encode all attribute constraints up-front; a missing constant => empty
    val cons: Map[Term, Seq[(Long, Long)]] = folded.constraints.map { case (t, cs) =>
      t -> cs.map { case (p, o) => (dict.idOpt(p).getOrElse(return empty), dict.idOpt(o).getOrElse(return empty)) }
    }

    folded.core match {
      case None =>
        // every pattern folded away: a single-vertex signature scan
        require(cons.size == 1, s"unsupported all-attribute query over ${cons.size} subjects")
        val (term, cs) = cons.head
        term match {
          case Term.Var(_) => fastPath(dg.attrSubjects(cs).toSeq.map(Row(_)))
          case Term.Const(u) => // boolean query: one row with no columns when true
            fastPath(dict.idOpt(u).filter(dg.attrSubjects(cs).contains).map(_ => Row()).toSeq)
        }

      case Some(core) =>
        // constraints on terms outside the core: only constant subjects are
        // supported (a pure existence pre-check)
        val (onCore, offCore) = cons.partition { case (t, _) => core.vertexTerms.contains(t) }
        offCore.foreach {
          case (Term.Const(u), cs) => if (!dict.idOpt(u).exists(dg.attrSubjects(cs).contains)) return empty
          case (Term.Var(n), _) =>
            throw new UnsupportedOperationException(
              s"constraint on variable ?$n disconnected from the entity core")
        }
        core.encode(dict) match {
          case None => result(Nil, Stats())
          case Some(q0) =>
            val consByIdx = onCore.map { case (t, cs) => core.vertexTerms.indexOf(t) -> cs }
            val q = q0.copy(constraints = consByIdx)
            // the result's columns, as core vertices: the core may order them differently
            val varIdx = vars.map(v => core.vertexTerms.indexOf(Term.Var(v)))
            core.starCenter.filter(c => consByIdx.keys.forall(_ == c)) match {
              case Some(center) => fastPath(starRows(dg, q, center, varIdx, maxPMs))
              case None =>
                val (rows, stats) = evaluateGeneral(dg, q, varIdx, opt, bitLen, maxPMs, basicBudget)
                result(rows, stats)
            }
        }
    }
  }

  /** §VIII-B star path: crossing edges are replicated, so every match of a
    * star lies in its centre's owner fragment. One task per site runs
    * `LocalMatcher` over only the internal cores `I` that hold the centre.
    * Each row it returns binds every vertex and checks every edge and the
    * centre's constraints, and the centre is internal at one site only. A
    * leaf's constraints are checked only at the leaf's owner, so a star with
    * one takes the general path.
    */
  private def starRows(
      dg: DistributedGraph,
      q: EncodedQuery,
      center: Int,
      varIdx: Seq[Int],
      maxPMs: Int,
  ): Seq[Row] = {
    val centerBit = 1L << center
    dg.fragTriples.rdd
      .mapPartitionsWithIndex { (f, it) =>
        LocalMatcher.run(f, it, q, CandidateBits.empty, maxPMs, need = centerBit).iterator
          .map(pm => varIdx.map(pm.bind))
      }
      // distinct: variable predicates and constants are not columns
      .collect().distinct.map(Row.fromSeq).toSeq
  }

  /** Alg. 4, then Def.-5 partial evaluation and Alg. 2 pruning as at most
    * two jobs over the sites' `LocalMatcher` output, then assembly at the
    * coordinator. Each site's output is one `Array[PMRow]`: one cached block
    * per site when LO/Full read it twice, uncached when Basic/LA collect it
    * once.
    */
  private def evaluateGeneral(
      dg: DistributedGraph,
      q: EncodedQuery,
      varIdx: Seq[Int],
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
    // LO/Full sites ship their complete local matches, LPM count and
    // deduplicated LEC features, and later only the LPMs that survive
    // pruning, which the coordinator marks by each site's feature
    // ordinals. Basic and LA collect every LPM as part of assembly; LA
    // derives its features from them at the coordinator, with no extra
    // communication.
    val pruned = opt == OptLevel.LO || opt == OptLevel.Full
    val blocks = dg.fragTriples.rdd
      .mapPartitionsWithIndex((f, it) => Iterator.single(LocalMatcher.run(f, it, q, bits, maxPMs).toArray))
    val sites = if (pruned) blocks.cache() else blocks
    try {
      val (complete, numLpms, lpms, siteFeatures) =
        if (pruned) {
          val perSite = sites.map { pms =>
            val (complete, lpms) = pms.partition(_.isCompleteLocal(full))
            (complete, lpms.length, lpms.map(LecFeature.of).distinct)
          }.collect()
          (perSite.flatMap(_._1).toIndexedSeq, perSite.map(_._2.toLong).sum,
            IndexedSeq.empty[PMRow], perSite.map(_._3))
        } else {
          val (complete, lpms) = sites.collect().iterator.flatten.toIndexedSeq.partition(_.isCompleteLocal(full))
          (complete, lpms.size.toLong, lpms, Array.empty[Array[LecFeature]])
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
          val features = siteFeatures.flatten.toIndexedSeq
          val combos = LecPruning.combos(q, features)
          // no surviving feature: no site has an LPM to ship
          val kept =
            if (combos.surviving.isEmpty) IndexedSeq.empty[PMRow]
            else {
              // site f's surviving features, by their ordinal in what it shipped
              val offsets = siteFeatures.scanLeft(0)(_ + _.length)
              val masks = siteFeatures.indices.map(f =>
                Array.tabulate(siteFeatures(f).length)(o => combos.surviving(offsets(f) + o))).toArray
              // the cached block is the array the features came from, so
              // first occurrences number its features in the same order
              sites.mapPartitionsWithIndex { (f, it) =>
                val mask = masks(f)
                val ordinal = mutable.HashMap.empty[LecFeature, Int]
                it.map(_.filter(pm =>
                  !pm.isCompleteLocal(full) && mask(ordinal.getOrElseUpdate(LecFeature.of(pm), ordinal.size))))
              }.collect().iterator.flatten.toIndexedSeq
            }
          (features, Some(combos), kept)
      }
      val lecTimeMs = if (pruned) (System.nanoTime() - t2) / 1000000 else 0L
      val lecShipment = if (pruned) features.map(_.byteSize(q.n)).sum else 0L

      // -- stage 4: assembly at the coordinator -----------------------------
      val t3 = if (pruned) System.nanoTime() else t2
      val (crossMatches, asmStats) = combos match {
        case None    => Assembly.basic(q, kept, basicBudget)
        case Some(c) => Assembly.lec(q, kept, features, c)
      }
      // the projected matches, deduplicated once: crossing first, then local
      val matches = mutable.LinkedHashSet.empty[Seq[Long]]
      crossMatches.foreach(b => matches += varIdx.map(b))
      val numCrossingMatches = matches.size
      complete.foreach(pm => matches += varIdx.map(pm.bind))
      val assemblyTimeMs = (System.nanoTime() - t3) / 1000000

      (
        matches.iterator.map(Row.fromSeq).toVector,
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
          numMatches = matches.size,
          numCrossingMatches = numCrossingMatches,
          asmPairTests = asmStats.pairTests,
          asmDnf = asmStats.dnf,
        ),
      )
    } finally if (pruned) sites.unpersist()
  }
}
