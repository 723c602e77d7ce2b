package repro.core

import repro.part.FragTriple
import repro.rdf.RdfGraph
import scala.util.Random

/** Driver-side helpers for matcher/assembly tests: build fragments with
  * crossing-edge replicas (same layout `DistributedGraph` produces) without
  * going through Spark.
  */
object TestGraphs {

  def fragmentsOf(g: RdfGraph, owners: Map[Long, Int]): Map[Int, Vector[FragTriple]] = {
    val rows = g.triples.flatMap { case (s, p, o) =>
      val sf = owners(s); val of = owners(o)
      val hosts = if (sf == of) Seq(sf) else Seq(sf, of)
      hosts.map(f => FragTriple(f, s, p, o, sf, of))
    }
    rows.groupBy(_.frag)
  }

  /** Random directed multigraph with `nPred` predicates as string triples. */
  def randomGraph(rng: Random, nVerts: Int, nEdges: Int, nPred: Int): RdfGraph = {
    val triples = (0 until nEdges).map { _ =>
      val s = rng.nextInt(nVerts); val o = rng.nextInt(nVerts)
      (s"v$s", s"p${rng.nextInt(nPred)}", s"v$o")
    }
    RdfGraph.fromStrings(triples)
  }

  def randomOwners(rng: Random, g: RdfGraph, k: Int): Map[Long, Int] =
    g.vertexIds.map(v => v -> rng.nextInt(k)).toMap

  /** A random connected query: path / triangle / star / square templates
    * over the graph's predicate vocabulary, sometimes with a constant.
    */
  def randomQuery(rng: Random, g: RdfGraph, nPred: Int): QueryGraph = {
    def p() = s"p${rng.nextInt(nPred)}"
    def maybeConst(v: String): String =
      if (rng.nextDouble() < 0.25) g.dict.str(g.vertexIds(rng.nextInt(g.vertexIds.size)))
      else v
    val shape = rng.nextInt(5)
    val rows = shape match {
      case 0 => Seq(s"?a ${p()} ?b", s"?b ${p()} ?c") // path-3
      case 1 => Seq(s"?a ${p()} ?b", s"?b ${p()} ?c", s"?c ${p()} ?a") // triangle
      case 2 => Seq(s"?a ${p()} ?b", s"?a ${p()} ?c", s"?a ${p()} ${maybeConst("?d")}") // star
      case 3 => Seq(s"?a ${p()} ?b", s"?b ${p()} ?c", s"?c ${p()} ?d") // path-4
      case _ => Seq(s"?a ${p()} ?b", s"?b ${p()} ${maybeConst("?c")}") // short path w/ const
    }
    QueryGraph.of(rows: _*)
  }

  /** A random connected query with variable predicates and self-loops.
    * Each predicate variable occurs once: the engine does not join on them.
    */
  def randomVarPredQuery(rng: Random, g: RdfGraph, nPred: Int): QueryGraph = {
    def p() = s"p${rng.nextInt(nPred)}"
    def const() = g.dict.str(g.vertexIds(rng.nextInt(g.vertexIds.size)))
    val rows = rng.nextInt(7) match {
      case 0 => Seq("?a ?e ?b", s"?b ${p()} ?c")
      case 1 => Seq(s"?a ${p()} ?a", s"?a ${p()} ?b")
      case 2 => Seq(s"?a ?e ${const()}")
      case 3 => Seq("?a ?e ?b", "?b ?f ?c", s"?c ${p()} ?d") // path-4
      case 4 => Seq("?a ?e ?b", s"?b ${p()} ?c", "?c ?f ?a") // triangle
      case 5 => Seq("?a ?e ?a", s"?a ${p()} ?b", "?b ?f ?b") // loops at both ends
      case _ => Seq("?a ?e ?b", s"?b ${p()} ${const()}", s"?a ${p()} ?a")
    }
    QueryGraph.of(rows: _*)
  }
}
