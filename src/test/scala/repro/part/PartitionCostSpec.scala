package repro.part

import repro.SparkSpec
import repro.rdf.LubmData
import scala.util.Using

/** §VII cost model, including Fig.-8-style worked examples that hit the
  * paper's exact 27.5 / 23.4 costs.
  */
class PartitionCostSpec extends SparkSpec {

  private def dgOf(edges: Seq[(String, String)], ownerOf: Map[String, Int], k: Int) = {
    val (g, owners) = TinyGraphs.of(edges.map { case (s, o) => (s, "p", o) }, ownerOf)
    DistributedGraph.fromOwners(spark, g, owners, k)
  }

  test("Fig. 8(a): concentrated crossing edges cost 27.5") {
    // F1 = {u,a,b,c,d} with 7 internal edges; 4 crossing edges all at u
    val edges = Seq(
      ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"), ("b", "d"), ("u", "a"),
      ("u", "w1"), ("u", "w2"), ("u", "w3"), ("u", "w4"),
      ("w1", "w2"), ("w2", "w3"), ("w3", "w4"),
    )
    val owners = Map("u" -> 0, "a" -> 0, "b" -> 0, "c" -> 0, "d" -> 0,
      "w1" -> 1, "w2" -> 1, "w3" -> 1, "w4" -> 1)
    val b = PartitionCost.breakdown(dgOf(edges, owners, 2))
    assert(b.numCrossing == 4)
    assert(math.abs(b.expectation - 2.5) < 1e-9)
    assert(b.maxFragEdges == 11) // 7 internal + 4 crossing replicas
    assert(math.abs(b.cost - 27.5) < 1e-9)
  }

  test("Fig. 8(b): scattered crossing edges cost 23.4 — preferred") {
    // F1 = {x,y,a,b,c} with 8 internal edges; 5 crossing edges split 3+2
    val edges = Seq(
      ("x", "y"), ("x", "a"), ("x", "b"), ("y", "a"), ("y", "c"), ("a", "b"), ("b", "c"), ("c", "a"),
      ("x", "m1"), ("x", "m2"), ("x", "m3"), ("y", "m4"), ("y", "m5"),
      ("m1", "m2"), ("m2", "m3"),
    )
    val owners = Map("x" -> 0, "y" -> 0, "a" -> 0, "b" -> 0, "c" -> 0,
      "m1" -> 1, "m2" -> 1, "m3" -> 1, "m4" -> 1, "m5" -> 1)
    val b = PartitionCost.breakdown(dgOf(edges, owners, 2))
    assert(b.numCrossing == 5)
    assert(math.abs(b.expectation - 1.8) < 1e-9)
    assert(b.maxFragEdges == 13)
    assert(math.abs(b.cost - 23.4) < 1e-9)
    assert(b.cost < 27.5) // the paper picks partitioning (b)
  }

  test("zero crossing edges cost 0") {
    val edges = Seq(("a", "b"), ("b", "c"))
    val owners = Map("a" -> 0, "b" -> 0, "c" -> 0)
    val b = PartitionCost.breakdown(dgOf(edges, owners, 2))
    assert(b.numCrossing == 0 && b.cost == 0.0)
  }

  test("expectations sum the squared per-vertex crossing incidences") {
    // two crossing edges sharing a vertex: incidences 2,1,1 -> (4+1+1)/4=1.5
    val edges = Seq(("a", "w1"), ("a", "w2"))
    val owners = Map("a" -> 0, "w1" -> 1, "w2" -> 1)
    val b = PartitionCost.breakdown(dgOf(edges, owners, 2))
    assert(math.abs(b.expectation - 1.5) < 1e-9)
  }

  test("breakdown on a fresh store is one Spark job") {
    val g = LubmData.graph(LubmData.Spec(nUniv = 4))
    Using.resource(DistributedGraph.build(spark, g, Partitioners.Hash, 4, LubmData.attributePredicates)) { dg =>
      val sc = spark.sparkContext
      val group = "partition-cost-breakdown"
      sc.setJobGroup(group, group)
      try PartitionCost.breakdown(dg)
      finally sc.clearJobGroup()
      assert(sc.statusTracker.getJobIdsForGroup(group).length == 1)
    }
  }

  test("cost model ranks real partitionings on LUBM") {
    // gStore configuration: attribute edges (types, literals) are vertex
    // signatures and do not cross fragments
    val g = LubmData.graph(LubmData.Spec(nUniv = 4))
    val costs = Partitioners.all.map { p =>
      val dg = DistributedGraph.build(spark, g, p, 4, LubmData.attributePredicates)
      val c = PartitionCost.cost(dg)
      dg.close()
      p.name -> c
    }.toMap
    // semantic hash exploits LUBM's per-university domains
    assert(costs("semantic") < costs("hash"))
    assert(costs.values.forall(_ > 0))
  }
}
