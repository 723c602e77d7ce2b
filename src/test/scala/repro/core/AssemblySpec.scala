package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.rdf.RdfGraph
import scala.util.Random

class AssemblySpec extends AnyFunSuite {

  private def assembleLec(q: EncodedQuery, pms: IndexedSeq[PMRow]) = {
    val features = pms.map(LecFeature.of).distinct.toIndexedSeq
    val combos = LecPruning.combos(q, features)
    val (matches, stats) = Assembly.lec(q, pms, features, combos)
    (matches, stats, combos)
  }

  private def pmsOf(g: RdfGraph, owners: Map[Long, Int], q: EncodedQuery): IndexedSeq[PMRow] =
    TestGraphs.fragmentsOf(g, owners).toVector
      .flatMap { case (f, ts) => LocalMatcher.run(f, ts.iterator, q) }
      .filterNot(_.isCompleteLocal(q.fullMask)).toIndexedSeq

  test("path across two fragments assembles to exactly one match — and needs two same-fragment pieces") {
    // a --p--> b --p--> c, a,c in F0, b in F1: the complete match joins TWO
    // F0 pieces with one F1 piece (Thm. 4 multi-way, same-fragment case)
    val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("b", "p", "c")))
    val owners = Map(g.dict.id("a") -> 0, g.dict.id("b") -> 1, g.dict.id("c") -> 0)
    val q = QueryGraph.of("?x p ?y", "?y p ?z").encode(g.dict).get
    val (matches, _, _) = assembleLec(q, pmsOf(g, owners, q))
    assert(matches.toSet == Set(Vector(g.dict.id("a"), g.dict.id("b"), g.dict.id("c"))))
  }

  test("three-fragment chain assembles") {
    val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("b", "p", "c"), ("c", "p", "d")))
    val owners = Map(g.dict.id("a") -> 0, g.dict.id("b") -> 1, g.dict.id("c") -> 2, g.dict.id("d") -> 0)
    val q = QueryGraph.of("?w p ?x", "?x p ?y", "?y p ?z").encode(g.dict).get
    val (matches, _, _) = assembleLec(q, pmsOf(g, owners, q))
    assert(matches.toSet == Set(Vector("a", "b", "c", "d").map(g.dict.id)))
  }

  test("no match assembles when the path is broken") {
    val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("b", "q", "c")))
    val owners = Map(g.dict.id("a") -> 0, g.dict.id("b") -> 1, g.dict.id("c") -> 0)
    val q = QueryGraph.of("?x p ?y", "?y p ?z").encode(g.dict).get
    val (matches, _, _) = assembleLec(q, pmsOf(g, owners, q))
    assert(matches.isEmpty)
  }

  test("binding conflicts beyond crossing edges are rejected") {
    // triangle query; graph where two pieces agree on the crossing edge but
    // disagree on a third vertex
    val g = RdfGraph.fromStrings(Seq(
      ("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a"),
      ("b", "p", "c2"), ("c2", "p", "a2"),
    ))
    val owners = Map(
      g.dict.id("a") -> 0, g.dict.id("b") -> 1, g.dict.id("c") -> 0,
      g.dict.id("c2") -> 1, g.dict.id("a2") -> 1)
    val q = QueryGraph.of("?x p ?y", "?y p ?z", "?z p ?x").encode(g.dict).get
    val (matches, _, _) = assembleLec(q, pmsOf(g, owners, q))
    // only the true triangle survives (in its three rotations); the
    // c2/a2 decoy pieces that agree on the b-crossing edge are rejected
    def rot(s: Seq[String]) = s.map(g.dict.id)
    assert(matches.toSet == Set(
      rot(Seq("a", "b", "c")), rot(Seq("b", "c", "a")), rot(Seq("c", "a", "b"))).map(_.toVector))
    assert(!matches.flatten.contains(g.dict.id("c2")))
    assert(!matches.flatten.contains(g.dict.id("a2")))
  }

  test("basic assembly agrees with LEC assembly (randomized)") {
    for (seed <- 0 until 15) {
      val rng = new Random(100 + seed)
      val g = TestGraphs.randomGraph(rng, 9, 16, 3)
      val owners = TestGraphs.randomOwners(rng, g, 3)
      TestGraphs.randomQuery(rng, g, 3).encode(g.dict).foreach { q =>
        val pms = pmsOf(g, owners, q)
        val (lecM, _, _) = assembleLec(q, pms)
        val (basicM, bs) = Assembly.basic(q, pms)
        assert(!bs.dnf)
        assert(lecM.toSet == basicM.toSet, s"seed $seed")
      }
    }
  }

  test("LEC assembly joins far fewer pairs than basic on hub equivalence classes") {
    // hub h in F1 with 12 crossing spokes s_i and 12 internal tails t_j:
    // F1 holds 144 LPMs but only 12 LEC features (classes of 12), so the
    // basic worklist pays ~12x more pairwise tests than the LEC path
    val triples = (0 until 12).flatMap(i => Seq((s"s$i", "p", "h"), ("h", "q", s"t$i")))
    val g = RdfGraph.fromStrings(triples)
    val owners = g.vertexIds.map { v =>
      v -> (if (g.dict.str(v).startsWith("s")) 0 else 1)
    }.toMap
    val q = QueryGraph.of("?x p ?y", "?y q ?z").encode(g.dict).get
    val pms = pmsOf(g, owners, q)
    val features = pms.map(LecFeature.of).distinct
    assert(features.size < pms.size / 5) // real equivalence classes exist
    val (lecM, lecStats, combos) = assembleLec(q, pms)
    val (basicM, basicStats) = Assembly.basic(q, pms)
    assert(lecM.toSet == basicM.toSet)
    assert(lecM.size == 144)
    assert(lecStats.pairTests + combos.stats.joinTests < basicStats.pairTests)
  }

  test("basic assembly's join space on the hub example is pinned") {
    val triples = (0 until 12).flatMap(i => Seq((s"s$i", "p", "h"), ("h", "q", s"t$i")))
    val g = RdfGraph.fromStrings(triples)
    val owners = g.vertexIds.map(v => v -> (if (g.dict.str(v).startsWith("s")) 0 else 1)).toMap
    val q = QueryGraph.of("?x p ?y", "?y q ?z").encode(g.dict).get
    val (matches, st) = Assembly.basic(q, pmsOf(g, owners, q))
    assert(matches.size == 144 && !st.dnf)
    assert(st.pairTests == 1872)
  }

  test("basic assembly reports DNF when over budget") {
    val triples = (0 until 12).flatMap(i => Seq((s"s$i", "p", "h"), ("h", "q", s"t$i")))
    val g = RdfGraph.fromStrings(triples)
    val owners = g.vertexIds.map(v => v -> (if (g.dict.str(v) == "h") 1 else 0)).toMap
    val q = QueryGraph.of("?x p ?y", "?y q ?z").encode(g.dict).get
    val pms = pmsOf(g, owners, q)
    val (_, st) = Assembly.basic(q, pms, budget = 10)
    assert(st.dnf)
  }

  test("assembled matches never contain NULL bindings") {
    for (seed <- 0 until 10) {
      val rng = new Random(200 + seed)
      val g = TestGraphs.randomGraph(rng, 8, 14, 2)
      val owners = TestGraphs.randomOwners(rng, g, 2)
      TestGraphs.randomQuery(rng, g, 2).encode(g.dict).foreach { q =>
        val (matches, _, _) = assembleLec(q, pmsOf(g, owners, q))
        matches.foreach(m => assert(m.forall(_ >= 0)))
      }
    }
  }
}
