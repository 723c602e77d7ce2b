package repro.baselines

import repro.{Oracle, SparkSpec}
import repro.bench.Workloads
import repro.core.{BgpSql, QueryGraph}
import repro.rdf.RdfGraph
import scala.util.Using

/** The four comparison systems against the DuckDB oracle / each other. */
class BaselinesSpec extends SparkSpec {

  private lazy val lubm = Workloads.lubm("test")
  private lazy val yago = Workloads.yago("test")

  private lazy val s2rdfL = new S2Rdf(spark, lubm.graph)
  private lazy val csL = new CliqueSquare(spark, lubm.graph)
  private lazy val dreamL = new Dream(spark, lubm.graph)
  private lazy val s2xL = new S2X(spark, lubm.graph)

  override def afterAll(): Unit =
    try Seq(s2rdfL, csL, dreamL, s2xL).foreach(_.close())
    finally super.afterAll()

  // S2RDF against the oracle on both workloads
  for ((wlName, wl) <- Seq("LUBM" -> (() => lubm), "YAGO2" -> (() => yago))) {
    for ((name, q, _) <- Workloads.byName(if (wlName == "LUBM") "lubm" else "yago", "test").queries) {
      test(s"S2RDF $name matches the oracle") {
        val w = wl()
        Using.resource(new S2Rdf(spark, w.graph)) { engine =>
          val res = engine.evaluate(q)
          BgpSql.sql(q, w.graph.dict) match {
            case Some(sql) => Oracle.assertEquivalent(res, sql, "triples" -> w.graph.df(spark))
            case None      => assert(res.count() == 0)
          }
        }
      }
    }
  }

  // the other three systems against S2RDF on LUBM
  for ((name, q, _) <- Workloads.lubm("test").queries) {
    test(s"CliqueSquare/DREAM/S2X agree with S2RDF on $name") {
      val want = s2rdfL.evaluate(q).collect().map(_.toSeq).toSet
      assert(csL.evaluate(q).collect().map(_.toSeq).toSet == want, "CliqueSquare")
      assert(dreamL.evaluate(q).collect().map(_.toSeq).toSet == want, "DREAM")
      assert(s2xL.evaluate(q).collect().map(_.toSeq).toSet == want, "S2X")
    }
  }

  test("DREAM star decomposition covers every pattern exactly once") {
    val q = Workloads.lubm("test").queries.find(_._1 == "LQ1").get._2
    val stars = Plans.starDecompose(q)
    assert(stars.flatten.sorted == q.patterns.indices.toVector)
  }

  test("star decomposition of a star query is a single star") {
    val q = Workloads.lubm("test").queries.find(_._1 == "LQ2").get._2
    assert(Plans.starDecompose(q).size == 1)
  }

  test("DREAM reports intermediate result volume") {
    val q = Workloads.lubm("test").queries.find(_._1 == "LQ1").get._2
    dreamL.evaluate(q).count()
    assert(dreamL.lastIntermediate > 0)
  }

  test("baselines return empty frames for unknown constants") {
    val q = QueryGraph.of(s"?x ${repro.rdf.LubmData.memberOf} http://no.example/x")
    assert(s2rdfL.evaluate(q).count() == 0)
    assert(csL.evaluate(q).count() == 0)
    assert(dreamL.evaluate(q).count() == 0)
    assert(s2xL.evaluate(q).count() == 0)
  }

  // a graph of its own: a baseline over a graph that another live one has
  // cached shares that cache, and closing either releases it
  for ((sys, make) <- Seq[(String, RdfGraph => Baseline)](
      "S2RDF" -> (new S2Rdf(spark, _)), "CliqueSquare" -> (new CliqueSquare(spark, _)),
      "DREAM" -> (new Dream(spark, _)), "S2X" -> (new S2X(spark, _)))) {
    test(s"$sys releases every cache it made on close()") {
      val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("b", "q", "c"), ("c", "q", "a"), ("b", "p", "c")))
      val q = QueryGraph.of("?x p ?y", "?y q ?z")
      val before = spark.sparkContext.getPersistentRDDs.size
      val b = make(g)
      assert(b.evaluate(q).count() == 2)
      assert(spark.sparkContext.getPersistentRDDs.size > before)
      b.close()
      assert(spark.sparkContext.getPersistentRDDs.size == before)
    }
  }

  // DREAM and S2X cache per-query intermediates; the other two cache only tables
  for ((sys, make, intermediates) <- Seq[(String, RdfGraph => Baseline, Boolean)](
      ("S2RDF", new S2Rdf(spark, _), false), ("CliqueSquare", new CliqueSquare(spark, _), false),
      ("DREAM", new Dream(spark, _), true), ("S2X", new S2X(spark, _), true))) {
    test(s"$sys release() drops its per-query caches and keeps its tables") {
      val g = RdfGraph.fromStrings(Seq(("a", "p", "b"), ("b", "q", "c"), ("c", "q", "a"), ("b", "p", "c")))
      val q = QueryGraph.of("?x p ?y", "?y q ?z")
      val sc = spark.sparkContext
      val before = sc.getPersistentRDDs.size
      val b = make(g)
      assert(b.evaluate(q).count() == 2)
      b.release()
      val tables = sc.getPersistentRDDs.size
      assert(b.evaluate(q).count() == 2)
      assert(sc.getPersistentRDDs.size > tables == intermediates)
      b.release()
      assert(sc.getPersistentRDDs.size == tables)
      b.close()
      assert(sc.getPersistentRDDs.size == before)
    }
  }

  test("patternDf handles a repeated variable in one pattern") {
    val g = repro.rdf.RdfGraph.fromStrings(Seq(("a", "p", "a"), ("a", "p", "b")))
    val df = Plans.patternDf(g.df(spark), repro.core.TriplePattern(
      repro.core.Term.Var("x"), repro.core.Term.Const("p"), repro.core.Term.Var("x")), g).get
    val got = df.collect().map(_.getLong(0)).toSet
    assert(got == Set(g.dict.id("a")))
  }
}
