package repro.part

import repro.SparkSpec
import repro.rdf.{LubmData, RdfGraph}

class DistributedGraphSpec extends SparkSpec {

  private lazy val g = LubmData.graph(LubmData.Spec(nUniv = 4))
  private val k = 4
  private lazy val dg = DistributedGraph.build(spark, g, Partitioners.Hash, k)
  private lazy val rows = dg.fragTriples.collect().toVector

  test("every triple is stored at its subject-owner fragment") {
    val stored = rows.map(r => (r.frag, r.s, r.p, r.o)).toSet
    g.triples.foreach { case (s, p, o) =>
      assert(stored((dg.owners(s), s, p, o)))
    }
  }

  test("crossing edges are replicated to exactly both endpoint fragments") {
    val byTriple = rows.groupBy(r => (r.s, r.p, r.o))
    g.triples.foreach { case (s, p, o) =>
      val fs = byTriple((s, p, o)).map(_.frag).toSet
      if (dg.owners(s) == dg.owners(o)) assert(fs == Set(dg.owners(s)))
      else assert(fs == Set(dg.owners(s), dg.owners(o)))
    }
  }

  test("each stored row is hosted by one of its endpoint owners") {
    rows.foreach(r => assert(r.frag == r.sFrag || r.frag == r.oFrag))
  }

  test("sFrag/oFrag columns agree with the owner map") {
    rows.foreach { r =>
      assert(r.sFrag == dg.owners(r.s) && r.oFrag == dg.owners(r.o))
    }
  }

  test("fragments partition the vertex set (Def. 1 condition 1)") {
    val fragInternal = (0 until k).map { f =>
      rows.filter(_.frag == f).flatMap(r =>
        Seq(r.s).filter(_ => r.sFrag == f) ++ Seq(r.o).filter(_ => r.oFrag == f)).toSet
    }
    for (i <- 0 until k; j <- 0 until k; if i != j)
      assert(fragInternal(i).intersect(fragInternal(j)).isEmpty)
    assert(fragInternal.reduce(_ ++ _) == g.vertexIds.toSet)
  }

  test("extended vertices are exactly crossing-edge endpoints (Def. 1 cond 4)") {
    (0 until k).foreach { f =>
      val mine = rows.filter(_.frag == f)
      val extended = mine.flatMap(r =>
        Seq(r.s).filter(_ => r.sFrag != f) ++ Seq(r.o).filter(_ => r.oFrag != f)).toSet
      val crossEndpoints = mine.filter(_.isCrossing).flatMap(r =>
        Seq(r.s).filter(_ => r.sFrag != f) ++ Seq(r.o).filter(_ => r.oFrag != f)).toSet
      assert(extended == crossEndpoints)
    }
  }

  test("no fragment stores an edge between two extended vertices") {
    rows.foreach(r => assert(!(r.sFrag != r.frag && r.oFrag != r.frag)))
  }

  test("storedEdgesPerFrag matches a manual count") {
    val manual = rows.groupBy(_.frag).view.mapValues(_.size.toLong).toMap
    assert(dg.storedEdgesPerFrag == manual)
  }

  test("crossing edge counts are consistent") {
    val manual = rows.filter(_.isCrossing).map(r => (r.s, r.p, r.o)).distinct.size
    assert(dg.numCrossingEdges == manual)
    val perFrag = dg.crossingEdgesPerFrag
    // each distinct crossing edge is counted in exactly two fragments
    assert(perFrag.values.sum == 2L * manual)
  }

  test("partition i of the store holds exactly fragment i") {
    // fragment 1 of the second store is empty; the third has one fragment
    val halves = g.vertexIds.map(v => v -> (if (v % 2 == 0) 0 else 2)).toMap
    val stores = Seq(dg, DistributedGraph.fromOwners(spark, g, halves, 3),
      DistributedGraph.build(spark, g, Partitioners.Hash, 1))
    stores.foreach { d =>
      assert(d.fragTriples.rdd.getNumPartitions == d.k)
      val frags = d.fragTriples.rdd
        .mapPartitionsWithIndex((i, it) => Iterator(i -> it.map(_.frag).toSet))
        .collect().toMap
      (0 until d.k).foreach(i => assert(frags(i).subsetOf(Set(i)), s"partition $i of k=${d.k}"))
    }
    assert(stores(1).storedEdgesPerFrag.keySet == Set(0, 2))
    stores.drop(1).foreach(_.fragTriples.unpersist())
  }

  test("build rejects partial owner maps") {
    intercept[IllegalArgumentException] {
      DistributedGraph.fromOwners(spark, g, Map(g.vertexIds.head -> 0), k)
    }
  }
}

object TinyGraphs {

  /** Build an RdfGraph + explicit owners from labeled edges, for worked
    * examples: vertices are "vN" strings, owners given by name.
    */
  def of(edges: Seq[(String, String, String)], ownerOf: Map[String, Int]): (RdfGraph, Map[Long, Int]) = {
    val g = RdfGraph.fromStrings(edges)
    val owners = g.vertexIds.map(v => v -> ownerOf(g.dict.str(v))).toMap
    (g, owners)
  }
}
