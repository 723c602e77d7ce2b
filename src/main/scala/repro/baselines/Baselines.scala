package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.core.{QueryGraph, Term, TriplePattern}
import repro.rdf.RdfGraph
import scala.collection.mutable

/** Shared BGP-over-DataFrames machinery for the comparison systems
  * (S2RDF, CliqueSquare, DREAM, S2X). Each baseline produces the same
  * result set through a different plan shape, as in the original systems;
  * all are oracle-checked in tests.
  */
object Plans {

  /** One triple pattern as a DataFrame whose columns are its variables.
    * `None` when a constant is missing from the dictionary (no matches).
    */
  def patternDf(triples: DataFrame, tp: TriplePattern, g: RdfGraph): Option[DataFrame] = {
    var df = triples
    def constrain(t: Term, c: String): Boolean = t match {
      case Term.Const(u) =>
        g.dict.idOpt(u) match {
          case Some(id) => df = df.filter(col(c) === id); true
          case None     => false
        }
      case Term.Var(_) => true
    }
    if (!constrain(tp.s, "s") || !constrain(tp.p, "p") || !constrain(tp.o, "o")) return None
    // same variable in two positions of one pattern
    val positions = Seq(tp.s -> "s", tp.p -> "p", tp.o -> "o").collect {
      case (Term.Var(n), c) => n -> c
    }
    positions.groupBy(_._1).values.foreach { ps =>
      ps.map(_._2).sliding(2).foreach {
        case Seq(a, b) => df = df.filter(col(a) === col(b))
        case _         =>
      }
    }
    val proj = positions.distinctBy(_._1).map { case (n, c) => col(c).as(n) }
    Some(df.select(proj: _*))
  }

  /** Join DataFrames on shared columns, greedily keeping the plan connected. */
  def joinConnected(dfs: Seq[DataFrame]): DataFrame = {
    require(dfs.nonEmpty)
    var remaining = dfs.toList
    var acc = remaining.head
    remaining = remaining.tail
    while (remaining.nonEmpty) {
      remaining.find(d => d.columns.intersect(acc.columns).nonEmpty) match {
        case Some(d) =>
          acc = acc.join(d, acc.columns.intersect(d.columns).toSeq)
          remaining = remaining.filterNot(_ eq d)
        case None => // disconnected BGP component: cartesian product
          acc = acc.crossJoin(remaining.head)
          remaining = remaining.tail
      }
    }
    acc
  }

  def emptyResult(spark: SparkSession, q: QueryGraph): DataFrame = {
    val schema = StructType(q.variables.map(v => StructField(v, LongType, nullable = false)))
    spark.createDataFrame(spark.sparkContext.emptyRDD[org.apache.spark.sql.Row], schema)
  }

  /** Greedy decomposition into star subqueries (used by DREAM/CliqueSquare):
    * repeatedly pick the vertex covering the most uncovered patterns.
    */
  def starDecompose(q: QueryGraph): Vector[Vector[Int]] = {
    val uncovered = scala.collection.mutable.BitSet(q.patterns.indices: _*)
    val out = Vector.newBuilder[Vector[Int]]
    while (uncovered.nonEmpty) {
      val best = q.vertexTerms.indices.maxBy { v =>
        q.edges.zipWithIndex.count { case ((s, o, _), i) => uncovered(i) && (s == v || o == v) }
      }
      val mine = q.edges.zipWithIndex.collect {
        case ((s, o, _), i) if uncovered(i) && (s == best || o == best) => i
      }
      mine.foreach(uncovered -= _)
      out += mine.toVector
    }
    out.result()
  }
}

/** A comparison system over cached DataFrames: the triples and its
  * `table`s (per-predicate tables), plus the per-query intermediates its
  * plans register with `cache`. `release()` drops the intermediates and
  * `close()` releases everything, dependents before the tables they are
  * built on.
  */
abstract class Baseline(spark: SparkSession, g: RdfGraph) extends AutoCloseable {
  def evaluate(q: QueryGraph): DataFrame

  private val tables, intermediates = mutable.ArrayBuffer.empty[DataFrame]
  protected def table(df: DataFrame): DataFrame = { tables += df.cache(); df }
  protected def cache(df: DataFrame): DataFrame = { intermediates += df.cache(); df }
  protected val triples: DataFrame = table(g.df(spark))

  private def drop(dfs: mutable.ArrayBuffer[DataFrame]): Unit = {
    dfs.reverseIterator.foreach(_.unpersist()); dfs.clear()
  }
  def release(): Unit = drop(intermediates)
  def close(): Unit = { release(); drop(tables) }
}

/** S2RDF [Schätzle et al., PVLDB'16]-lite: vertical partitioning — one
  * (cached) `vp_<pred>(s, o)` DataFrame per predicate — and BGPs compiled
  * to Spark SQL joins over the VP tables.
  */
final class S2Rdf(spark: SparkSession, g: RdfGraph) extends Baseline(spark, g) {
  private val vp: Map[Long, DataFrame] =
    g.predicateIds.map(p => p -> table(triples.filter(col("p") === p).select("s", "o"))).toMap

  def evaluate(q: QueryGraph): DataFrame = {
    val parts = q.patterns.map { tp =>
      tp.p match {
        case Term.Const(u) =>
          g.dict.idOpt(u).flatMap { pid =>
            Plans.patternDf(vp(pid).select(col("s"), lit(pid).as("p"), col("o")), tp, g)
          }
        case Term.Var(_) => Plans.patternDf(triples, tp, g)
      }
    }
    if (parts.exists(_.isEmpty)) return Plans.emptyResult(spark, q)
    Plans.joinConnected(parts.map(_.get)).select(q.variables.map(col): _*).distinct()
  }
}

/** CliqueSquare [Goasdoué et al., ICDE'15]-lite: flat plans built from
  * n-ary star (clique) joins — patterns are grouped into stars, each star
  * is joined in one n-ary step, then star results are joined pairwise.
  */
final class CliqueSquare(spark: SparkSession, g: RdfGraph) extends Baseline(spark, g) {
  def evaluate(q: QueryGraph): DataFrame = {
    val parts = q.patterns.map(tp => Plans.patternDf(triples, tp, g))
    if (parts.exists(_.isEmpty)) return Plans.emptyResult(spark, q)
    val stars = Plans.starDecompose(q)
    val starDfs = stars.map(ids => Plans.joinConnected(ids.map(i => parts(i).get)))
    Plans.joinConnected(starDfs).select(q.variables.map(col): _*).distinct()
  }
}

/** DREAM [Hammoud et al., PVLDB'15]-lite: no data partitioning — every site
  * holds the whole graph; the *query* is decomposed into star subqueries,
  * each answered against the full data, and the (potentially huge)
  * intermediate star results are joined. `lastIntermediate` exposes the
  * replication-induced intermediate-result volume the paper criticizes.
  */
final class Dream(spark: SparkSession, g: RdfGraph) extends Baseline(spark, g) {
  @volatile var lastIntermediate: Long = 0

  def evaluate(q: QueryGraph): DataFrame = {
    val parts = q.patterns.map(tp => Plans.patternDf(triples, tp, g))
    if (parts.exists(_.isEmpty)) return Plans.emptyResult(spark, q)
    val stars = Plans.starDecompose(q)
    val starDfs = stars.map(ids => cache(Plans.joinConnected(ids.map(i => parts(i).get))))
    lastIntermediate = starDfs.map(_.count()).sum // shipped between sites
    Plans.joinConnected(starDfs).select(q.variables.map(col): _*).distinct()
  }
}

/** S2X [Schätzle et al., Big-O(Q)'15]-lite: graph-parallel candidate
  * validation — per-pattern candidate tables are iteratively pruned by
  * exchanging per-variable candidate sets (the GraphX message rounds),
  * then the surviving candidates are joined.
  */
final class S2X(spark: SparkSession, g: RdfGraph, rounds: Int = 2) extends Baseline(spark, g) {
  def evaluate(q: QueryGraph): DataFrame = {
    var parts = q.patterns.map(tp => Plans.patternDf(triples, tp, g))
    if (parts.exists(_.isEmpty)) return Plans.emptyResult(spark, q)
    var dfs = parts.map(p => cache(p.get))
    for (_ <- 0 until rounds) {
      // per-variable valid sets = intersection over incident patterns
      val valid: Map[String, DataFrame] = q.variables.map { v =>
        val incident = dfs.filter(_.columns.contains(v))
        v -> incident
          .map(_.select(col(v)).distinct())
          .reduce((a, b) => a.intersect(b))
      }.toMap
      dfs = dfs.map { d =>
        d.columns.foldLeft(d) { (acc, c) =>
          valid.get(c) match {
            case Some(vs) => acc.join(vs, Seq(c), "leftsemi")
            case None     => acc
          }
        }
      }
    }
    Plans.joinConnected(dfs).select(q.variables.map(col): _*).distinct()
  }
}
