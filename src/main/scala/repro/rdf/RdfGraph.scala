package repro.rdf

import org.apache.spark.sql.{DataFrame, SparkSession}

/** An id-encoded RDF graph: a triple set plus its dictionary.
  *
  * The driver-side `triples` vector is the source of truth for the
  * synthetic generators (small at our scale factors); [[df]] materializes
  * the distributed `triples(s, p, o)` DataFrame every pipeline starts from.
  */
final class RdfGraph(val dict: Dictionary, val triples: Vector[(Long, Long, Long)])
    extends Serializable {

  /** Distinct vertex ids: subjects and objects (predicates are edge labels). */
  lazy val vertexIds: Vector[Long] =
    triples.iterator.flatMap { case (s, _, o) => Iterator(s, o) }.toSet.toVector.sorted

  /** Distinct predicate ids. */
  lazy val predicateIds: Vector[Long] = triples.iterator.map(_._2).toSet.toVector.sorted

  def numTriples: Int = triples.size

  /** The `triples(s, p, o)` DataFrame (BIGINT columns). */
  def df(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.createDataset(triples).toDF("s", "p", "o")
  }

  /** Undirected adjacency over vertices, neighbours in triple order (used by
    * the METIS-like partitioner). A vertex with only self-loops has no entry.
    */
  lazy val undirectedAdj: Map[Long, Vector[Long]] =
    triples.flatMap { case (s, _, o) => if (s == o) Nil else Seq(s -> o, o -> s) }
      .groupMap(_._1)(_._2).view.mapValues(_.distinct).toMap
}

object RdfGraph {

  /** Encode raw string triples (deduplicated) into an [[RdfGraph]]. */
  def fromStrings(raw: Iterable[(String, String, String)]): RdfGraph = {
    val distinct = raw.toVector.distinct
    val dict = Dictionary.ofTriples(distinct)
    val enc = distinct.map { case (s, p, o) => (dict.id(s), dict.id(p), dict.id(o)) }
    new RdfGraph(dict, enc)
  }
}
