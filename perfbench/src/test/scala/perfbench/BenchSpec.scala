package perfbench

import java.nio.file.Paths
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Workloads

/** Self-checks of the benchmark: the seed reproduces the `bench`-tier
  * dataset, another seed still gives non-empty answers, and the counts of a
  * traced run repeat exactly.
  */
class BenchSpec extends AnyFunSuite {

  private lazy val spark = Bench.session()

  private def value(r: Bench.Result, name: String): Double =
    r.metrics.find(_.name == name).getOrElse(fail(s"no metric $name")).value

  private def traced(workload: String): Bench.Result =
    Bench.run(spark, Bench.Config(workload, seed = 0, seconds = 1, trace = true,
      spansDir = Paths.get("target", "test-spans")), _ => ())

  test("seed 0 reproduces the bench-tier LUBM dataset") {
    assert(Bench.lubm(0).graph.triples == Workloads.lubm("bench").graph.triples)
  }

  test("another seed gives other data with non-empty LQ1, LQ7 and LQ2") {
    val w = Bench.lubm(5)
    assert(w.graph.triples != Workloads.lubm("bench").graph.triples)
    val got = Reference.answers(w.graph, w.queries.collect {
      case (n, q, _) if Set("LQ1", "LQ7", "LQ2")(n) => n -> q
    })
    assert(got.size == 3)
    got.foreach { case (n, rows) => assert(rows.nonEmpty, s"$n is empty at seed 5") }
  }

  test("two traced runs at one seed give identical counts") {
    val a = traced("lubm-complex")
    val b = traced("lubm-complex")
    assert(a.correct && b.correct)
    val exact = Seq(
      "engine.spark_jobs", "engine.spark_tasks", "engine.shuffle_kb",
      "cand.spark_jobs", "cand.spark_tasks", "cand.shuffle_kb",
      "lpm.count", "lec.join_tests", "asm.pair_tests", "result.rows")
    exact.foreach(m => assert(value(a, m) == value(b, m), m))
    assert(value(a, "lpm.count") > 0 && value(a, "engine.spark_jobs") > 0)
  }

  test("star queries run no layer past the store and leave nothing cached") {
    val r = traced("lubm-star")
    // correct includes: every repeat of a query launched as many Spark jobs
    assert(r.correct)
    assert(value(r, "engine.spark_jobs") > 0)
    Seq("cand.spark_jobs", "lpm.count", "lec.features", "asm.pair_tests", "engine.leaked_rdds")
      .foreach(m => assert(value(r, m) == 0, m))
  }
}
