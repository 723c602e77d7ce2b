package repro.core

import org.apache.spark.sql.SparkSession
import repro.bench.Workloads
import repro.part.{DistributedGraph, Partitioners}

/** The feature join's input for benchmark queries, as the general path
  * computes it under `OptLevel.Full`: hash partitioning into the tables'
  * 12 fragments, the folded core with its attribute constraints, Alg.-4
  * candidate bits, then `LocalMatcher` per fragment and the distinct
  * features of the LPMs.
  */
object WorkloadFeatures {

  def apply(spark: SparkSession, wl: Workloads.Workload, names: Seq[String])
      : Map[String, (EncodedQuery, IndexedSeq[LecFeature])] = {
    val dg = DistributedGraph.build(spark, wl.graph, Partitioners.Hash, 12, wl.attrPreds)
    try {
      val frags = dg.fragTriples.collect().toVector.groupBy(_.frag)
      names.map { name =>
        val q = encode(dg, wl.queries.find(_._1 == name).get._2)
        val bits = CandidateExchange.run(dg, q, 1 << 14).bits
        val lpms = frags.toVector.sortBy(_._1).flatMap { case (f, ts) => LocalMatcher.run(f, ts.iterator, q, bits) }
          .filterNot(_.isCompleteLocal(q.fullMask))
        name -> (q, lpms.map(LecFeature.of).distinct)
      }.toMap
    } finally dg.fragTriples.unpersist()
  }

  /** The folded core with its on-core constraints; every constant must be
    * in the dictionary.
    */
  private def encode(dg: DistributedGraph, query: QueryGraph): EncodedQuery = {
    val dict = dg.graph.dict
    val folded = query.fold(dg.attrPreds)
    val core = folded.core.get
    val cons = folded.constraints.map { case (t, cs) =>
      core.vertexTerms.indexOf(t) -> cs.map { case (p, o) => (dict.id(p), dict.id(o)) }
    }
    core.encode(dict).get.copy(constraints = cons)
  }
}
