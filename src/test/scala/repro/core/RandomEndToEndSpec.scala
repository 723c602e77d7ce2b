package repro.core

import repro.SparkSpec
import repro.baselines.S2Rdf
import repro.part.DistributedGraph
import scala.util.{Random, Using}

/** Property test: on random graphs, random partitionings and random query
  * shapes, the distributed engine agrees with a centralized brute-force
  * matcher and with the S2RDF-style Spark SQL plan.
  */
class RandomEndToEndSpec extends SparkSpec {

  for (seed <- 0 until 12) {
    test(s"engine == brute force == S2RDF (seed $seed)") {
      val rng = new Random(1000 + seed)
      val g = TestGraphs.randomGraph(rng, 12, 26, 3)
      val k = 1 + rng.nextInt(3)
      val owners = TestGraphs.randomOwners(rng, g, k)
      val qg = TestGraphs.randomQuery(rng, g, 3)

      qg.encode(g.dict) match {
        case None => succeed
        case Some(q) =>
          val varIdx = (0 until q.n).filter(q.vertices(_).isVar)
          val want = BruteForce.centralMatches(g.triples, q).map(b => varIdx.map(b).toVector)

          val dg = DistributedGraph.fromOwners(spark, g, owners, k)
          val got = GStoreD.evaluate(dg, qg).matches
            .collect().map(r => r.toSeq.map(_.asInstanceOf[Long]).toVector).toSet
          dg.close()
          assert(got == want, s"engine vs brute force, query=${qg.patterns}")

          val s2 = Using.resource(new S2Rdf(spark, g))(_.evaluate(qg)
            .collect().map(r => r.toSeq.map(_.asInstanceOf[Long]).toVector).toSet)
          assert(s2 == want, s"s2rdf vs brute force, query=${qg.patterns}")
      }
    }
  }

  for (seed <- 0 until 6) {
    test(s"all opt levels agree on random input (seed $seed)") {
      val rng = new Random(2000 + seed)
      val g = TestGraphs.randomGraph(rng, 10, 22, 3)
      val owners = TestGraphs.randomOwners(rng, g, 3)
      val qg = TestGraphs.randomQuery(rng, g, 3)
      qg.encode(g.dict) match {
        case None => succeed
        case Some(_) =>
          val dg = DistributedGraph.fromOwners(spark, g, owners, 3)
          val results = OptLevel.all.map(lvl =>
            GStoreD.evaluate(dg, qg, lvl).matches.collect().map(_.toSeq).toSet)
          dg.close()
          assert(results.distinct.size == 1)
      }
    }
  }

  for (seed <- 0 until 12) {
    test(s"every opt level == brute force with variable predicates and self-loops (seed $seed)") {
      val rng = new Random(4000 + seed)
      val g = TestGraphs.randomGraph(rng, 8, 22, 3)
      val k = 1 + rng.nextInt(3)
      val owners = TestGraphs.randomOwners(rng, g, k)
      val qg = TestGraphs.randomVarPredQuery(rng, g, 3)
      qg.encode(g.dict).foreach { q =>
        val varIdx = (0 until q.n).filter(q.vertices(_).isVar)
        val want = BruteForce.centralMatches(g.triples, q).map(b => varIdx.map(b).toVector)
        Using.resource(DistributedGraph.fromOwners(spark, g, owners, k)) { dg =>
          OptLevel.all.foreach { lvl =>
            val got = GStoreD.evaluate(dg, qg, lvl).matches
              .collect().map(r => r.toSeq.map(_.asInstanceOf[Long]).toVector).toSet
            assert(got == want, s"${lvl.name}, query=${qg.patterns}")
          }
        }
      }
    }
  }
}
