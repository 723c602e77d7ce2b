package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.part.FragTriple
import repro.rdf.RdfGraph
import scala.util.Random

/** LocalMatcher vs. a literal brute-force check of Def. 5's conditions. */
class LocalMatcherSpec extends AnyFunSuite {

  private def lpmSet(rows: Seq[PMRow]): Set[(Vector[Long], Long)] =
    rows.map(r => (r.bind.toVector, r.sign)).toSet

  // ---- worked example: path query across two fragments ---------------------
  // a --p--> b --p--> c with a,c in F0 and b in F1
  private val (g1, owners1) = {
    val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("b", "p", "c")))
    (g, Map(g.dict.id("a") -> 0, g.dict.id("b") -> 1, g.dict.id("c") -> 0))
  }
  private val q1 = QueryGraph.of("?x p ?y", "?y p ?z").encode(g1.dict).get
  private val frags1 = TestGraphs.fragmentsOf(g1, owners1)

  test("worked example: F0 produces the two one-sided pieces") {
    val out = LocalMatcher.run(0, frags1(0).iterator, q1)
    val a = g1.dict.id("a"); val b = g1.dict.id("b"); val c = g1.dict.id("c")
    // I={x}: [a, b, NULL]; I={z}: [NULL, b, c]; x and z are not weakly
    // connected through internal vertices, so no piece binds both a and c
    assert(lpmSet(out) == Set(
      (Vector(a, b, PMRow.NULL), 1L),
      (Vector(PMRow.NULL, b, c), 4L),
    ))
  }

  test("worked example: F1 produces the middle piece plus shifted pieces") {
    val out = LocalMatcher.run(1, frags1(1).iterator, q1)
    val a = g1.dict.id("a"); val b = g1.dict.id("b"); val c = g1.dict.id("c")
    // I={y}: both neighbours of y must be bound (condition 5); the shifted
    // pieces I={x}->[b,c,-] and I={z}->[-,a,b] are genuine Def.-5 LPMs too
    // (they map the replicas to the "wrong" query edges and only die at
    // LEC-join time because their crossing mappings match no partner)
    assert(lpmSet(out) == Set(
      (Vector(a, b, c), 2L),
      (Vector(b, c, PMRow.NULL), 1L),
      (Vector(PMRow.NULL, a, b), 4L),
    ))
  }

  test("worked example: crossing-edge mappings are recorded") {
    val out = LocalMatcher.run(1, frags1(1).iterator, q1)
    val a = g1.dict.id("a"); val b = g1.dict.id("b"); val c = g1.dict.id("c")
    val p = g1.dict.id("p")
    val middle = out.find(_.sign == 2L).get
    assert(middle.cross.toSet == Set(Cross(0, a, p, b), Cross(1, b, p, c)))
  }

  test("worked example: all-internal placement yields a complete local match") {
    val sameOwners = g1.vertexIds.map(_ -> 0).toMap
    val frags = TestGraphs.fragmentsOf(g1, sameOwners)
    val out = LocalMatcher.run(0, frags(0).iterator, q1)
    val complete = out.filter(_.isCompleteLocal(q1.fullMask))
    assert(complete.size == 1)
    assert(complete.head.bind == Vector(g1.dict.id("a"), g1.dict.id("b"), g1.dict.id("c")))
    // and no spurious partial pieces exist without crossing edges
    assert(out.forall(pm => pm.isCompleteLocal(q1.fullMask) || pm.cross.nonEmpty))
  }

  test("constants must match or the piece is dropped") {
    val q = QueryGraph.of("?x p ?y", "?y p c").encode(g1.dict).get
    val out0 = LocalMatcher.run(0, frags1(0).iterator, q)
    // F0: I={z=c} piece exists; I={x} piece exists (c is not bound there)
    assert(out0.nonEmpty)
    val qBad = QueryGraph.of("?x p ?y", "?y p a").encode(g1.dict).get
    val bad = LocalMatcher.run(0, frags1(0).iterator, qBad) ++
      LocalMatcher.run(1, frags1(1).iterator, qBad)
    // nothing satisfies ?y p a — any piece binding the constant fails
    assert(!bad.exists(pm => pm.bind(2) == g1.dict.id("a")))
  }

  test("variable predicates match any edge label") {
    val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("a", "q", "b")))
    val owners = Map(g.dict.id("a") -> 0, g.dict.id("b") -> 1)
    val q = QueryGraph.of("?x ?e ?y").encode(g.dict).get
    val frags = TestGraphs.fragmentsOf(g, owners)
    val out = LocalMatcher.run(0, frags(0).iterator, q)
    // one LPM per matched predicate (the crossing mapping differs)
    assert(out.map(_.cross.head.p).toSet == Set(g.dict.id("p"), g.dict.id("q")))
  }

  test("candidate bits only ever prune, never add") {
    val rng = new Random(5)
    val g = TestGraphs.randomGraph(rng, 10, 20, 3)
    val owners = TestGraphs.randomOwners(rng, g, 3)
    val q = QueryGraph.of("?a p0 ?b", "?b p1 ?c").encode(g.dict)
    assume(q.isDefined)
    val frags = TestGraphs.fragmentsOf(g, owners)
    val restrictive = CandidateBits(64, Map(1 -> Array(0x5555555555555555L)))
    frags.foreach { case (f, ts) =>
      val unfiltered = lpmSet(LocalMatcher.run(f, ts.iterator, q.get))
      val filtered = lpmSet(LocalMatcher.run(f, ts.iterator, q.get, restrictive))
      assert(filtered.subsetOf(unfiltered))
    }
  }

  test("maxPMs cap fails loudly") {
    val triples = for (i <- 0 until 12; j <- 0 until 12) yield (s"s$i", "p", s"o$j")
    val g = RdfGraph.fromStrings(triples)
    val owners = g.vertexIds.zipWithIndex.map { case (v, i) => v -> i % 2 }.toMap
    val q = QueryGraph.of("?x p ?y").encode(g.dict).get
    val frags = TestGraphs.fragmentsOf(g, owners)
    intercept[IllegalStateException] {
      frags.foreach { case (f, ts) => LocalMatcher.run(f, ts.iterator, q, maxPMs = 3) }
    }
  }

  // ---- brute-force equivalence over randomized graphs ----------------------
  private def bruteForceCase(seed: Int): Option[(QueryGraph, EncodedQuery, Map[Int, Seq[FragTriple]])] = {
    val rng = new Random(seed)
    val g = TestGraphs.randomGraph(rng, 9, 16, 3)
    val k = 1 + rng.nextInt(3)
    val owners = TestGraphs.randomOwners(rng, g, k)
    val qg = TestGraphs.randomQuery(rng, g, 3)
    // None: a constant vanished from the random graph
    qg.encode(g.dict).map(q => (qg, q, TestGraphs.fragmentsOf(g, owners)))
  }

  for (seed <- 0 until 30) {
    test(s"matches brute-force Def. 5 enumeration (seed $seed)") {
      bruteForceCase(seed).foreach { case (qg, q, frags) =>
        frags.foreach { case (f, ts) =>
          val got = lpmSet(LocalMatcher.run(f, ts.iterator, q))
          val want = BruteForce.def5LPMs(f, ts, q)
          assert(got == want, s"fragment $f differs for query ${qg.patterns}")
        }
      }
    }
  }

  test("need keeps exactly the rows whose sign holds it (brute-force seeds, every mask)") {
    for (seed <- 0 until 30; (qg, q, frags) <- bruteForceCase(seed); need <- 0L until (1L << q.n)) {
      frags.foreach { case (f, ts) =>
        val got = LocalMatcher.run(f, ts.iterator, q, need = need)
        val want = LocalMatcher.run(f, ts.iterator, q).filter(pm => (pm.sign & need) == need)
        assert(got == want, s"seed $seed, fragment $f, need $need, query ${qg.patterns}")
      }
    }
  }

  for (seed <- 0 until 40) {
    test(s"variable predicates and self-loops match brute-force Def. 5 (seed $seed)") {
      val rng = new Random(3000 + seed)
      val g = TestGraphs.randomGraph(rng, 7, 18, 3)
      val owners = TestGraphs.randomOwners(rng, g, 1 + rng.nextInt(3))
      val qg = TestGraphs.randomVarPredQuery(rng, g, 3)
      qg.encode(g.dict).foreach { q =>
        TestGraphs.fragmentsOf(g, owners).foreach { case (f, ts) =>
          val got = lpmSet(LocalMatcher.run(f, ts.iterator, q))
          assert(got == BruteForce.def5LPMs(f, ts, q), s"fragment $f differs for query ${qg.patterns}")
        }
      }
    }
  }
}
