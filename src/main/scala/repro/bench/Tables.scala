package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{CliqueSquare, Dream, S2Rdf, S2X}
import repro.core.{GStoreD, OptLevel, QueryGraph}
import repro.part.{DistributedGraph, GraphPartitioner, PartitionCost, Partitioners}
import scala.util.Using

/** Tables I–III: per-stage evaluation of every benchmark query. */
object StageTable {

  final case class Row(
      query: String,
      selective: Boolean,
      candMs: Long,
      candKB: Long,
      lpmMs: Long,
      lecMs: Long,
      lecKB: Long,
      peMs: Long,
      asmMs: Long,
      totalMs: Long,
      lpms: Long,
      matches: Long,
      crossing: Long,
  )

  def run(
      spark: SparkSession,
      wl: Workloads.Workload,
      k: Int = 12,
      partitioner: GraphPartitioner = Partitioners.Hash,
      opt: OptLevel = OptLevel.Full,
  ): Vector[Row] = Using.resource(DistributedGraph.build(spark, wl.graph, partitioner, k, wl.attrPreds)) { dg =>
    dg.fragTriples.count() // materialize outside the per-query timers
    wl.queries.map { case (name, q, sel) =>
      val r = GStoreD.evaluate(dg, q, opt)
      val s = r.stats
      Row(
        name, sel,
        s.candTimeMs, s.candShipmentBytes / 1024,
        s.lpmTimeMs, s.lecTimeMs, s.lecShipmentBytes / 1024,
        s.partialEvalTimeMs, s.assemblyTimeMs, s.totalTimeMs,
        s.numLpms, s.numMatches, s.numCrossingMatches,
      )
    }
  }

  def render(title: String, rows: Seq[Row]): String = {
    val hdr = Seq(
      "Query", "Sel", "CandMs", "CandKB", "LPMMs", "LECMs", "LECKB",
      "PE-Ms", "AsmMs", "TotalMs", "LPMs", "Matches", "Crossing",
    )
    val data = rows.map(r =>
      Seq(
        r.query, if (r.selective) "√" else "", r.candMs, r.candKB, r.lpmMs,
        r.lecMs, r.lecKB, r.peMs, r.asmMs, r.totalMs, r.lpms, r.matches, r.crossing,
      ).map(_.toString))
    format(title, hdr, data)
  }

  private[bench] def format(title: String, hdr: Seq[String], data: Seq[Seq[String]]): String = {
    val all = hdr +: data
    val w = hdr.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]) =
      cells.zip(w).map { case (c, wi) => c.padTo(wi, ' ') }.mkString("| ", " | ", " |")
    (s"== $title ==" +: line(hdr) +: data.map(line)).mkString("\n")
  }
}

/** Table IV: Cost_Partitioning of hash / semantic hash / METIS-like. */
object PartitionCostTable {

  final case class Row(dataset: String, partitioner: String, crossing: Long, expectation: Double, maxFragEdges: Long, cost: Double)

  def run(spark: SparkSession, wl: Workloads.Workload, k: Int = 12): Vector[Row] =
    Partitioners.all.map { p =>
      val b = Using.resource(DistributedGraph.build(spark, wl.graph, p, k, wl.attrPreds))(PartitionCost.breakdown)
      Row(wl.name, p.name, b.numCrossing, b.expectation, b.maxFragEdges, b.cost)
    }

  def render(rows: Seq[Row]): String = {
    val hdr = Seq("Dataset", "Partitioning", "|E^c|", "E_F(V)", "MaxFragEdges", "Cost")
    val data = rows.map(r =>
      Seq(r.dataset, r.partitioner, r.crossing.toString, f"${r.expectation}%.2f",
        r.maxFragEdges.toString, f"${r.cost}%.1f"))
    StageTable.format("Table IV: Cost_Partitioning", hdr, data)
  }
}

/** Fig.-9-style ablation (supplementary): Basic vs LA vs LO vs Full on the
  * non-star queries.
  */
object VariantTable {

  final case class Row(query: String, level: String, totalMs: Long, lpms: Long, pairTests: Long, matches: Long, dnf: Boolean)

  def run(spark: SparkSession, wl: Workloads.Workload, k: Int = 12): Vector[Row] =
    Using.resource(DistributedGraph.build(spark, wl.graph, Partitioners.Hash, k, wl.attrPreds)) { dg =>
      dg.fragTriples.count()
      for {
        (name, q, _) <- wl.queries if !q.isStar
        lvl <- OptLevel.all
      } yield {
        // modest basic-assembly budget: blowups report as DNF like the
        // paper's timed-out baselines instead of stalling the bench
        val r = GStoreD.evaluate(dg, q, lvl, basicBudget = 2_000_000L)
        val s = r.stats
        Row(name, lvl.name, s.totalTimeMs, s.numLpms, s.asmPairTests, s.numMatches, s.asmDnf)
      }
    }

  def render(wlName: String, rows: Seq[Row]): String = {
    val hdr = Seq("Query", "Level", "TotalMs", "LPMs", "PairTests", "Matches", "DNF")
    val data = rows.map(r =>
      Seq(r.query, r.level, r.totalMs.toString, r.lpms.toString, r.pairTests.toString,
        r.matches.toString, if (r.dnf) "DNF" else ""))
    StageTable.format(s"Optimization ablation ($wlName)", hdr, data)
  }
}

/** Fig.-12-style comparison (supplementary): gStoreD over its best
  * partitioning vs the four baseline systems.
  */
object ComparisonTable {

  final case class Row(query: String, system: String, ms: Long, matches: Long)

  /** Every system is timed alike: the wall time of `evaluate(q)` plus
    * `collect()` of the frame it returns, after one untimed call that
    * absorbs what the previous system left behind. A baseline releases the
    * intermediates that call cached, so the timed call computes them again.
    */
  def run(spark: SparkSession, wl: Workloads.Workload, k: Int = 12): Vector[Row] = Using.Manager { use =>
    val triples = wl.graph
    val baselines = Seq(
      "S2RDF" -> use(new S2Rdf(spark, triples)),
      "CliqueSquare" -> use(new CliqueSquare(spark, triples)),
      "DREAM" -> use(new Dream(spark, triples)),
      "S2X" -> use(new S2X(spark, triples)),
    )
    val dg = use(DistributedGraph.build(spark, wl.graph, Partitioners.Hash, k, wl.attrPreds))
    dg.fragTriples.count()
    val systems: Seq[(String, QueryGraph => DataFrame, () => Unit)] =
      ("gStoreD", (q: QueryGraph) => GStoreD.evaluate(dg, q).matches, () => ()) +:
        baselines.map { case (sys, b) => (sys, b.evaluate _, b.release _) }

    wl.queries.flatMap { case (name, q, _) =>
      systems.map { case (sys, evaluate, release) =>
        evaluate(q).collect()
        release()
        val t0 = System.nanoTime()
        val n = evaluate(q).collect().length
        Row(name, sys, (System.nanoTime() - t0) / 1000000, n)
      }
    }
  }.get

  def render(wlName: String, rows: Seq[Row]): String = {
    val hdr = Seq("Query", "System", "Ms", "Matches")
    val data = rows.map(r => Seq(r.query, r.system, r.ms.toString, r.matches.toString))
    StageTable.format(s"Online comparison ($wlName)", hdr, data)
  }
}
