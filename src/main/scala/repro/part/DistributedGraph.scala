package repro.part

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.rdf.RdfGraph
import scala.collection.mutable

/** One stored triple of a fragment: `frag` hosts it, `sFrag`/`oFrag` are the
  * owner fragments of its endpoints. A crossing edge (`sFrag != oFrag`)
  * appears in both endpoint fragments (Def. 1's replicated `E_i^c`).
  */
final case class FragTriple(frag: Int, s: Long, p: Long, o: Long, sFrag: Int, oFrag: Int) {
  def isCrossing: Boolean = sFrag != oFrag
}

/** A distributed RDF graph (Def. 1): the triple set exploded into per-
  * fragment stores with crossing-edge replicas. `fragTriples` is the one
  * resident copy of the sites: partition `i` of its RDD holds exactly
  * fragment `i`, so a `mapPartitionsWithIndex` over `fragTriples.rdd` is one
  * round of work at every site (§III). [[close]] releases it.
  */
final class DistributedGraph(
    val spark: SparkSession,
    val k: Int,
    val graph: RdfGraph,
    val owners: Map[Long, Int],
    val fragTriples: Dataset[FragTriple],
    val attrPreds: Set[String] = Set.empty,
) extends AutoCloseable {

  /** Per non-empty site: stored rows `|E_i ∪ E_i^c|`, distinct crossing
    * edges held `|E_i^c|`, and `Σ |N(v) ∩ E^c|²` over its internal vertices,
    * in one pass over the sites. A site holds every crossing edge of its
    * internal vertices (Def. 1), and the internal endpoint of one it holds
    * is the one it owns.
    */
  private[part] lazy val siteStats: Map[Int, SiteStats] =
    fragTriples.rdd
      .mapPartitionsWithIndex { (f, it) =>
        var stored = 0L
        val crossing = mutable.HashSet.empty[FragTriple]
        it.foreach { t => stored += 1; if (t.isCrossing) crossing += t }
        val degrees = crossing.toSeq.groupMapReduce(t => if (t.sFrag == t.frag) t.s else t.o)(_ => 1L)(_ + _)
        if (stored == 0) Iterator.empty
        else Iterator.single(f -> SiteStats(stored, crossing.size, degrees.valuesIterator.map(d => d * d).sum))
      }
      .collect().toMap

  /** |E_i ∪ E_i^c| per non-empty fragment (stored edges, incl. replicas). */
  lazy val storedEdgesPerFrag: Map[Int, Long] = siteStats.view.mapValues(_.stored).toMap

  /** |E^c|: distinct crossing edges of the whole partitioning. Each is held
    * by both endpoint owners.
    */
  lazy val numCrossingEdges: Long = siteStats.valuesIterator.map(_.crossing).sum / 2

  /** Internal subjects carrying every attribute edge `(p, o)` in `cs` (a
    * folded gStore signature filter), in one pass over the sites: all of a
    * subject's edges are stored at its owner, where it is internal.
    */
  def attrSubjects(cs: Seq[(Long, Long)]): Array[Long] =
    fragTriples.rdd
      .mapPartitionsWithIndex { (f, it) =>
        val site = Site(f, it)
        site.internal.iterator.filter(s => cs.forall { case (p, o) => site.has(s, outgoing = true, p, o) })
      }
      .collect()

  def close(): Unit = fragTriples.unpersist()
}

private[part] final case class SiteStats(stored: Long, crossing: Long, sumSquares: Long)

object DistributedGraph {

  /** Partition `g` with `partitioner` into `k` fragments and build the
    * fragment stores: each triple goes to its host fragments through a
    * broadcast of the owner map (one row per vertex), and one shuffle puts
    * fragment `i` in partition `i`.
    *
    * `attrPreds` are gStore-style attribute predicates (rdf:type, literal
    * attributes): their edges are stored only with the subject and never
    * count as crossing edges — the object is part of the subject's vertex
    * signature, not a partitioned graph vertex.
    */
  def build(
      spark: SparkSession,
      g: RdfGraph,
      partitioner: GraphPartitioner,
      k: Int,
      attrPreds: Set[String] = Set.empty,
  ): DistributedGraph =
    fromOwners(spark, g, partitioner.assign(g, k), k, attrPreds)

  def fromOwners(
      spark: SparkSession,
      g: RdfGraph,
      owners: Map[Long, Int],
      k: Int,
      attrPreds: Set[String] = Set.empty,
  ): DistributedGraph = {
    import spark.implicits._
    require(g.vertexIds.forall(owners.contains), "partitioner must cover every vertex")
    require(owners.valuesIterator.forall(f => 0 <= f && f < k), s"owners must lie in [0, $k)")
    val attrIds = attrPreds.flatMap(g.dict.idOpt)
    val ownersB = spark.sparkContext.broadcast(owners)
    // host fragments: owner of s, plus owner of o when the edge crosses
    val rows = spark.sparkContext
      .parallelize(g.triples)
      .flatMap { case (s, p, o) =>
        val sFrag = ownersB.value(s)
        val oFrag = if (attrIds(p)) sFrag else ownersB.value(o)
        val hosts = if (sFrag == oFrag) Seq(sFrag) else Seq(sFrag, oFrag)
        hosts.map(f => f -> FragTriple(f, s, p, o, sFrag, oFrag))
      }
      .partitionBy(new HashPartitioner(k)) // partition f = fragment f
      .values
    // sorted rows compress well in the columnar cache
    val frags = spark.createDataset(rows).sortWithinPartitions("p", "o", "s")
    new DistributedGraph(spark, k, g, owners, frags.cache(), attrPreds)
  }
}
