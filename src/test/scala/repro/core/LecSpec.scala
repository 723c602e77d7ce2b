package repro.core

import repro.SparkSpec
import repro.bench.Workloads
import repro.rdf.RdfGraph
import scala.util.Random

/** LEC features (Def. 8 / Alg. 1), Def.-9 joinability and Alg.-2 pruning. */
class LecSpec extends SparkSpec {

  // the worked path example: a --p--> b --p--> c, a,c in F0, b in F1
  private val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("b", "p", "c")))
  private val a = g.dict.id("a"); private val b = g.dict.id("b"); private val c = g.dict.id("c")
  private val p = g.dict.id("p")
  private val owners = Map(a -> 0, b -> 1, c -> 0)
  private val q = QueryGraph.of("?x p ?y", "?y p ?z").encode(g.dict).get
  private val frags = TestGraphs.fragmentsOf(g, owners)
  private val pms0 = LocalMatcher.run(0, frags(0).iterator, q)
  private val pms1 = LocalMatcher.run(1, frags(1).iterator, q)

  test("Alg. 1: features project fragment, crossing map and LECSign") {
    val f = LecFeature.of(pms0.find(_.sign == 1L).get)
    assert(f == LecFeature(0, Seq(Cross(0, a, p, b)), 1L))
  }

  test("features deduplicate equivalent LPMs") {
    // two LPMs with the same crossing edges+mapping collapse to one feature
    val all = (pms0 ++ pms1).map(LecFeature.of)
    assert(all.distinct.size <= all.size)
  }

  test("crossBindings extracts crossing endpoints per query vertex") {
    val f = LecFeature(0, Seq(Cross(0, a, p, b)), 1L)
    assert(BruteForce.crossBindings(q, f) == Map(0 -> a, 1 -> b))
  }

  test("byteSize is O(|E^Q| + |V^Q|)") {
    val f = LecFeature(0, Seq(Cross(0, a, p, b), Cross(1, b, p, c)), 1L)
    assert(f.byteSize(q.n) == 4 + 2 * 28 + 1)
  }

  test("Def. 9: the matching halves are joinable") {
    val left = LecFeature(0, Seq(Cross(0, a, p, b)), 1L) // x internal at F0
    val middle = LecFeature(1, Seq(Cross(0, a, p, b), Cross(1, b, p, c)), 2L)
    assert(LecPruning.joinable(q, left, middle))
    assert(LecPruning.joinable(q, middle, left))
  }

  test("Def. 9 condition 1: same fragment is not joinable") {
    val f1 = LecFeature(0, Seq(Cross(0, a, p, b)), 1L)
    val f2 = LecFeature(0, Seq(Cross(0, a, p, b), Cross(1, b, p, c)), 2L)
    assert(!LecPruning.joinable(q, f1, f2))
  }

  test("Def. 9 condition 2: no shared crossing edge is not joinable") {
    val f1 = LecFeature(0, Seq(Cross(0, a, p, b)), 1L)
    val f2 = LecFeature(1, Seq(Cross(1, b, p, c)), 4L)
    assert(!LecPruning.joinable(q, f1, f2))
  }

  test("Def. 9 condition 3: conflicting mapping of a query edge") {
    val f1 = LecFeature(0, Seq(Cross(0, a, p, b)), 1L)
    val f2 = LecFeature(1, Seq(Cross(0, b, p, c), Cross(1, c, p, a)), 2L)
    assert(!LecPruning.joinable(q, f1, f2))
  }

  test("Def. 9 condition 4 / Thm. 5: overlapping LECSigns are not joinable") {
    val f1 = LecFeature(0, Seq(Cross(0, a, p, b)), 1L)
    val f2 = LecFeature(1, Seq(Cross(0, a, p, b)), 3L)
    assert(!LecPruning.joinable(q, f1, f2))
    // Thm. 5 special case: equal signs
    val f3 = LecFeature(1, Seq(Cross(0, a, p, b)), 1L)
    assert(!LecPruning.joinable(q, f1, f3))
  }

  test("vertex-level consistency: shared query vertex must bind equally") {
    // both features map query edge 0 and 1 resp., sharing vertex y=1
    val q3 = QueryGraph.of("?x p ?y", "?z p ?y").encode(g.dict).get
    val f1 = LecFeature(0, Seq(Cross(0, a, p, b)), 1L) // y -> b
    val f2 = LecFeature(1, Seq(Cross(1, c, p, b)), 4L) // y -> b: consistent but no shared edge
    assert(!LecPruning.joinable(q3, f1, f2)) // fails shared-edge condition
  }

  test("Alg. 2 prunes features that reach no complete sign") {
    val features = (pms0 ++ pms1).map(LecFeature.of).distinct.toIndexedSeq
    val combos = LecPruning.combos(q, features)
    // the real decomposition {[a,b,-],[a,b,c],[-,b,c]} survives
    assert(combos.complete.nonEmpty)
    val surviving = combos.surviving.map(features)
    assert(surviving.contains(LecFeature(0, Seq(Cross(0, a, p, b)), 1L)))
    assert(surviving.contains(LecFeature(0, Seq(Cross(1, b, p, c)), 4L)))
    assert(surviving.contains(LecFeature(1, Seq(Cross(0, a, p, b), Cross(1, b, p, c)), 2L)))
    // the shifted pieces ([b,c,-] from F1 etc.) die
    assert(!surviving.contains(LecFeature(1, Seq(Cross(0, b, p, c)), 1L)))
    assert(!surviving.contains(LecFeature(1, Seq(Cross(1, a, p, b)), 4L)))
  }

  test("Alg. 2 join space on the path example is pinned") {
    val features = (pms0 ++ pms1).map(LecFeature.of).distinct.toIndexedSeq
    val combos = LecPruning.combos(q, features)
    assert(combos.complete == Vector(Vector(0, 1, 3)))
    assert(combos.surviving == Set(0, 1, 3))
    assert(combos.stats.statesExplored == 7)
    assert(combos.stats.completeCombos == 1)
  }

  test("Alg. 2 finds exactly the brute-force complete feature sets") {
    def check(what: String, q: EncodedQuery, pms: Seq[PMRow]): Int = {
      val features = pms.filterNot(_.isCompleteLocal(q.fullMask)).map(LecFeature.of).distinct.toIndexedSeq
      val complete = LecPruning.combos(q, features).complete.map(_.toSet)
      assert(complete.size == complete.toSet.size, s"$what: a set found twice")
      assert(complete.toSet == BruteForce.completeFeatureSets(q, features), what)
      complete.size
    }
    assert(check("path", q, pms0 ++ pms1) == 1)
    // hub h in F1 with 12 crossing spokes s_i from F0 and 12 internal tails
    val hub = RdfGraph.fromStrings((0 until 12).flatMap(i => Seq((s"s$i", "p", "h"), ("h", "q", s"t$i"))))
    val hubOwners = hub.vertexIds.map(v => v -> (if (hub.dict.str(v).startsWith("s")) 0 else 1)).toMap
    val hq = QueryGraph.of("?x p ?y", "?y q ?z").encode(hub.dict).get
    val hubPms = TestGraphs.fragmentsOf(hub, hubOwners).toVector.flatMap { case (f, ts) => LocalMatcher.run(f, ts.iterator, hq) }
    assert(check("hub", hq, hubPms) == 12)
    for (seed <- 0 until 10) {
      val rng = new Random(seed)
      val rg = TestGraphs.randomGraph(rng, 9, 16, 3)
      val ro = TestGraphs.randomOwners(rng, rg, 3)
      TestGraphs.randomQuery(rng, rg, 3).encode(rg.dict).foreach { rq =>
        val pms = TestGraphs.fragmentsOf(rg, ro).toVector.flatMap { case (f, ts) => LocalMatcher.run(f, ts.iterator, rq) }
        check(s"seed $seed", rq, pms)
      }
    }
  }

  test("Alg. 2 join counts on test-tier YQ3 are pinned") {
    // YAGO test tier, hash, k = 12, folded core, Alg.-4 bits
    val (yq, features) = WorkloadFeatures(spark, Workloads.yago("test"), Seq("YQ3"))("YQ3")
    val c = LecPruning.combos(yq, features)
    assert(features.size == 2385)
    assert(c.complete.size == 9548 && c.surviving.size == 2385)
    assert(c.stats.statesExplored == 32662 && c.stats.completeCombos == 9548)
    // only sign-disjoint groups are probed: 1,276,256 tests when every row
    // sharing a crossing edge is drawn
    assert(c.stats.joinTests == 79650)
  }

  test("Alg. 2 on an empty feature set") {
    val combos = LecPruning.combos(q, IndexedSeq.empty)
    assert(combos.complete.isEmpty && combos.surviving.isEmpty)
  }

  test("Alg. 2 state cap fails loudly") {
    val features = (pms0 ++ pms1).map(LecFeature.of).distinct.toIndexedSeq
    intercept[IllegalStateException](LecPruning.combos(q, features, budget = 1))
  }

  test("pruning never changes assembled results (randomized)") {
    for (seed <- 0 until 10) {
      val rng = new Random(seed)
      val rg = TestGraphs.randomGraph(rng, 9, 16, 3)
      val ro = TestGraphs.randomOwners(rng, rg, 3)
      TestGraphs.randomQuery(rng, rg, 3).encode(rg.dict).foreach { rq =>
        val fr = TestGraphs.fragmentsOf(rg, ro)
        val pms = fr.toVector.flatMap { case (f, ts) => LocalMatcher.run(f, ts.iterator, rq) }
          .filterNot(_.isCompleteLocal(rq.fullMask)).toIndexedSeq
        val features = pms.map(LecFeature.of).distinct.toIndexedSeq
        val combos = LecPruning.combos(rq, features)
        val (allM, _) = Assembly.lec(rq, pms, features, combos)
        val kept = pms.filter(pm => combos.surviving.map(features).contains(LecFeature.of(pm)))
        val (prunedM, _) = Assembly.lec(rq, kept, features, combos)
        assert(allM.toSet == prunedM.toSet, s"seed $seed")
      }
    }
  }
}
