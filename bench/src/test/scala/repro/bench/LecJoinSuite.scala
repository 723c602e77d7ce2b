package repro.bench

import repro.SparkSpec
import repro.core.{LecPruning, WorkloadFeatures}

/** In-process microbenchmark of Alg. 2's feature join
  * (`LecPruning.combos`), a coordinator-only layer whose time the fixed Spark
  * job latencies hide end to end. It prints the median time over repeated
  * runs after a few untimed ones, and asserts only the join's counts, which
  * are deterministic.
  */
class LecJoinSuite extends SparkSpec {

  private val Warmup = 5
  private val Runs = 15

  private lazy val inputs =
    WorkloadFeatures(spark, Workloads.lubm("bench"), Seq("LQ1", "LQ7")) ++
      WorkloadFeatures(spark, Workloads.yago("bench"), Seq("YQ3"))

  for ((name, tests, states, complete) <- Seq(
      ("LQ1", 251792L, 14067L, 1629),
      ("LQ7", 28624L, 9645L, 1019),
      ("YQ3", 665712L, 256810L, 81771),
    ))
    test(s"$name (k = 12, hash): feature join counts") {
      val (q, features) = inputs(name)
      (0 until Warmup).foreach(_ => LecPruning.combos(q, features))
      val runs = Vector.fill(Runs) {
        val t0 = System.nanoTime()
        val c = LecPruning.combos(q, features)
        ((System.nanoTime() - t0) / 1e6, c)
      }
      val median = runs.map(_._1).sorted.apply(Runs / 2)
      val c = runs.last._2
      println(f"LecJoinSuite $name: combos median $median%.1f ms of $Runs runs; ${features.size} features, " +
        s"${c.stats.joinTests} tests, ${c.stats.statesExplored} states, ${c.complete.size} complete")
      assert(c.stats.joinTests == tests)
      assert(c.stats.statesExplored == states)
      assert(c.complete.size == complete)
    }
}
