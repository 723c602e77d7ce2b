package repro.part

import repro.SparkSpec
import repro.bench.Workloads
import repro.rdf.{LubmData, RdfGraph}
import scala.util.Using

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
    val perFrag = dg.siteStats.view.mapValues(_.crossing)
    // each distinct crossing edge is counted in exactly two fragments
    assert(perFrag.values.sum == 2L * manual)
  }

  private lazy val lubm = Workloads.lubm("test")
  for (p <- Partitioners.all) {
    test(s"site statistics match counts over the collected store (${p.name}, attribute predicates)") {
      Using.resource(DistributedGraph.build(spark, lubm.graph, p, k, lubm.attrPreds)) { d =>
        val rows = d.fragTriples.collect().toVector
        val crossing = rows.filter(_.isCrossing).map(r => (r.s, r.p, r.o)).distinct
        val degrees = crossing.flatMap(e => Seq(e._1, e._3)).groupMapReduce(identity)(_ => 1L)(_ + _)
        assert(d.storedEdgesPerFrag == rows.groupBy(_.frag).view.mapValues(_.size.toLong).toMap)
        assert(d.numCrossingEdges == crossing.size)
        assert(d.siteStats.values.map(_.sumSquares).sum == degrees.values.map(n => n * n).sum)
      }
    }
  }

  for (p <- Partitioners.all) {
    test(s"attrSubjects equals the carriers over the collected store (${p.name})") {
      Using.resource(DistributedGraph.build(spark, lubm.graph, p, k, lubm.attrPreds)) { d =>
        val attrIds = lubm.attrPreds.map(d.graph.dict.id)
        // attribute edge (p, o) -> the subjects that carry it
        val carriers = d.fragTriples.collect().filter(t => attrIds(t.p))
          .groupMapReduce(t => (t.p, t.o))(t => Set(t.s))(_ ++ _)
        def want(cs: Seq[(Long, Long)]) = cs.map(carriers).reduce(_ intersect _)
        val common = carriers.keys.toSeq.sortBy(c => (-carriers(c).size, c))
        val first = common.head
        // a second attribute that some carrier of the first also carries
        val second = common.find(c => c != first && carriers(c).exists(carriers(first))).get
        // and one that none of them carries
        val disjoint = common.find(c => carriers(c).intersect(carriers(first)).isEmpty).get
        val signatures = Seq(Seq(first), Seq(first, second), Seq(first, disjoint))
        assert(want(Seq(first, second)).nonEmpty && want(Seq(first, disjoint)).isEmpty)
        signatures.foreach { cs =>
          val got = d.attrSubjects(cs)
          assert(got.length == got.distinct.length && got.toSet == want(cs), s"signature $cs")
        }
      }
    }
  }

  test("close releases the store's cached blocks") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val d = DistributedGraph.build(spark, g, Partitioners.Hash, k)
    d.fragTriples.count()
    val cached = sc.getPersistentRDDs.keySet -- before
    assert(cached.nonEmpty)
    d.close()
    assert(sc.getPersistentRDDs.keySet.intersect(cached).isEmpty)
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
    stores.drop(1).foreach(_.close())
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
