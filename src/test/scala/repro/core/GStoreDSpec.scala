package repro.core

import org.apache.spark.SparkException
import repro.{Oracle, SparkSpec}
import repro.bench.Workloads
import repro.part.{DistributedGraph, Partitioners}
import repro.rdf.LubmData

/** End-to-end: gStoreD (all opt levels, all partitioners) vs the DuckDB
  * oracle on every benchmark query of the three workloads.
  */
class GStoreDSpec extends SparkSpec {

  private lazy val workloads = Seq(
    Workloads.lubm("test"),
    Workloads.yago("test"),
    Workloads.btc("test"),
  )
  private val k = 4

  private lazy val dgs = workloads.map { wl =>
    wl.name -> DistributedGraph.build(spark, wl.graph, Partitioners.Hash, k)
  }.toMap

  // attribute-folded deployments (the bench configuration: gStore treats
  // types/literal attributes as vertex signatures)
  private lazy val dgsFolded = workloads.map { wl =>
    wl.name -> DistributedGraph.build(spark, wl.graph, Partitioners.Hash, k, wl.attrPreds)
  }.toMap

  // --- oracle equivalence for every benchmark query ------------------------
  for (wl <- Seq("lubm", "yago", "btc")) {
    lazy val w = workloads.find(_.name.toLowerCase.startsWith(wl.take(3))).get
    for ((name, q, _) <- Workloads.byName(wl, "test").queries) {
      test(s"$name matches the DuckDB oracle") {
        val dg = dgs(w.name)
        val res = GStoreD.evaluate(dg, q)
        BgpSql.sql(q, w.graph.dict) match {
          case Some(sql) =>
            Oracle.assertEquivalent(res.matches, sql, "triples" -> w.graph.df(spark))
          case None =>
            assert(res.matches.count() == 0)
        }
      }

      test(s"$name matches the DuckDB oracle with attribute folding") {
        val res = GStoreD.evaluate(dgsFolded(w.name), q)
        BgpSql.sql(q, w.graph.dict) match {
          case Some(sql) =>
            Oracle.assertEquivalent(res.matches, sql, "triples" -> w.graph.df(spark))
          case None =>
            assert(res.matches.count() == 0)
        }
      }
    }
  }

  // --- star fast path -------------------------------------------------------
  for ((wlName, qName, folded) <- Seq(("lubm", "LQ2", false), ("lubm", "LQ4", false), ("lubm", "LQ5", false),
      ("btc", "BQ1", false), ("btc", "BQ2", false), ("btc", "BQ3", false),
      ("lubm", "LQ2", true), ("lubm", "LQ4", true), ("lubm", "LQ5", true))) {
    test(s"$qName runs on the star fast path with zero communication${if (folded) " with attribute folding" else ""}") {
      val w = Workloads.byName(wlName, "test")
      val (_, q, _) = w.queries.find(_._1 == qName).get
      val res = GStoreD.evaluate((if (folded) dgsFolded else dgs)(w.name), q)
      val s = res.stats
      assert(s.starFastPath)
      assert(s.numCrossingMatches == 0 && s.numLpms == 0)
      assert(s.candShipmentBytes == 0 && s.lecShipmentBytes == 0)
      if (folded) assert(s.numMatches > 0)
    }
  }

  test("the star fast path respects maxPMs and leaves no cached Dataset behind") {
    val dg = dgsFolded("LUBM")
    dg.fragTriples.count()
    val (_, q, _) = workloads.head.queries.find(_._1 == "LQ2").get
    val before = spark.sparkContext.getPersistentRDDs.size
    intercept[SparkException](GStoreD.evaluate(dg, q, OptLevel.Full, maxPMs = 3))
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  // --- star, scan and existence branches on the folded store ----------------
  private def assertOracle(q: QueryGraph): QueryResult = {
    val w = workloads.head
    val res = GStoreD.evaluate(dgsFolded(w.name), q)
    Oracle.assertEquivalent(res.matches, BgpSql.sql(q, w.graph.dict).get, "triples" -> w.graph.df(spark))
    res
  }

  import LubmData.{Department, FullProfessor, GraduateStudent, University, advisor, dept, memberOf, ptype,
    subOrganizationOf, undergraduateDegreeFrom, univ, worksFor}

  test("a star with a leaf constraint matches the DuckDB oracle") {
    val q = QueryGraph.of(s"?x $advisor ?p", s"?p $ptype $FullProfessor", s"?x $ptype $GraduateStudent")
    assert(q.fold(dgsFolded("LUBM").attrPreds).core.exists(_.isStar))
    val res = assertOracle(q)
    assert(res.stats.numMatches > 0 && !res.stats.starFastPath)
  }

  // folding moves the first variable behind another in the core's vertex
  // order; the columns follow the query
  test("columns follow the query's variable order on the star and general paths") {
    val star = QueryGraph.of(s"?p $ptype $FullProfessor", s"?x $advisor ?p", s"?y $advisor ?p")
    val general = QueryGraph.of(s"?y $ptype $University", s"?x $memberOf ?z",
      s"?z $subOrganizationOf ?y", s"?x $undergraduateDegreeFrom ?y")
    for ((q, onStar) <- Seq(star -> true, general -> false)) {
      val res = assertOracle(q)
      assert(res.matches.columns.toSeq == q.variables)
      assert(res.stats.starFastPath == onStar && res.stats.numMatches > 0)
    }
  }

  // BgpSql selects no column for a query without variables: ask instead
  for ((what, nameOf, truth) <- Seq(("true", 0, true), ("false", 1, false))) {
    test(s"a constant-subject all-attribute query is $what by the DuckDB oracle") {
      val w = workloads.head
      val prof = s"${dept(0, 0)}/prof0"
      val q = QueryGraph.of(s"$prof $ptype $FullProfessor", s"$prof ${LubmData.name} lit://name/prof/0/0/$nameOf")
      val res = GStoreD.evaluate(dgsFolded(w.name), q)
      assert(res.matches.columns.isEmpty && res.matches.count() == (if (truth) 1 else 0))
      val ask = "SELECT COUNT(*) > 0 AS ask FROM" + BgpSql.sql(q, w.graph.dict).get.stripPrefix("SELECT DISTINCT  FROM")
      Oracle.assertEquivalent(spark.createDataFrame(Seq(Tuple1(res.matches.count() > 0))).toDF("ask"), ask,
        "triples" -> w.graph.df(spark))
    }
  }

  for ((what, cls, truth) <- Seq(("passes", University, true), ("fails", Department, false))) {
    test(s"an off-core constant-subject check that $what matches the DuckDB oracle") {
      val q = QueryGraph.of(s"?x $worksFor ${dept(0, 0)}", s"${univ(0)} $ptype $cls")
      val core = q.fold(dgsFolded("LUBM").attrPreds).core.get
      assert(!core.vertexTerms.contains(Term(univ(0))))
      assert((assertOracle(q).stats.numMatches > 0) == truth)
    }
  }

  // --- opt levels agree ------------------------------------------------------
  for ((name, q, _) <- Workloads.lubm("test").queries if !q.isStar) {
    test(s"$name: Basic, LA, LO and Full agree") {
      val dg = dgs("LUBM")
      val results = OptLevel.all.map { lvl =>
        val r = GStoreD.evaluate(dg, q, lvl)
        lvl.name -> r.matches.collect().map(_.toSeq).toSet
      }
      assert(results.map(_._2).distinct.size == 1, results.map { case (n, s) => n -> s.size })
    }
  }

  for ((name, q, _) <- Workloads.yago("test").queries if !q.isStar) {
    test(s"$name: LA and Full agree") {
      val dg = dgs("YAGO2")
      val a = GStoreD.evaluate(dg, q, OptLevel.LA).matches.collect().map(_.toSeq).toSet
      val b = GStoreD.evaluate(dg, q, OptLevel.Full).matches.collect().map(_.toSeq).toSet
      assert(a == b)
    }
  }

  // --- partitioning tolerance ------------------------------------------------
  for (p <- Partitioners.all) {
    test(s"LQ1 result is identical under ${p.name} partitioning") {
      val w = workloads.head
      val dg = DistributedGraph.build(spark, w.graph, p, k)
      val (_, q, _) = w.queries.find(_._1 == "LQ1").get
      val got = GStoreD.evaluate(dg, q).matches.collect().map(_.toSeq).toSet
      val want = GStoreD.evaluate(dgs("LUBM"), q).matches.collect().map(_.toSeq).toSet
      dg.close()
      assert(got == want)
    }
  }

  test("single-fragment deployment answers everything locally") {
    val w = workloads.head
    val dg = DistributedGraph.build(spark, w.graph, Partitioners.Hash, 1)
    val (_, q, _) = w.queries.find(_._1 == "LQ1").get
    val res = GStoreD.evaluate(dg, q)
    assert(res.stats.numCrossingMatches == 0)
    val want = GStoreD.evaluate(dgs("LUBM"), q).matches.collect().map(_.toSeq).toSet
    assert(res.matches.collect().map(_.toSeq).toSet == want)
    dg.close()
  }

  test("a query with an unknown constant returns an empty, well-typed frame") {
    val q = QueryGraph.of(s"?x ${repro.rdf.LubmData.memberOf} http://nowhere.example/dept")
    val res = GStoreD.evaluate(dgs("LUBM"), q)
    assert(res.matches.columns.toSeq == Seq("x"))
    assert(res.matches.count() == 0)
  }

  test("LQ3 is empty but exercises the full pipeline") {
    val w = workloads.head
    val (_, q, _) = w.queries.find(_._1 == "LQ3").get
    val res = GStoreD.evaluate(dgs("LUBM"), q)
    assert(res.stats.numMatches == 0)
    assert(!res.stats.starFastPath)
  }

  test("selective LQ6 produces crossing matches under hash partitioning") {
    val w = workloads.head
    val (_, q, _) = w.queries.find(_._1 == "LQ6").get
    val res = GStoreD.evaluate(dgs("LUBM"), q)
    assert(res.stats.numMatches > 0)
    assert(res.stats.numCrossingMatches > 0) // hash scatters the path
  }

  test("stats are internally consistent") {
    val w = workloads.head
    val (_, q, _) = w.queries.find(_._1 == "LQ1").get
    val s = GStoreD.evaluate(dgs("LUBM"), q).stats
    assert(s.totalTimeMs == s.partialEvalTimeMs + s.assemblyTimeMs)
    assert(s.numLpmsKept <= s.numLpms)
    assert(s.numCrossingMatches <= s.numMatches)
    assert(s.lecShipmentBytes > 0 && s.candShipmentBytes > 0)
  }

  for (lvl <- Seq(OptLevel.LO, OptLevel.Full)) {
    test(s"LQ1 at ${lvl.name} leaves no cached Dataset behind") {
      val dg = dgs("LUBM")
      dg.fragTriples.count() // materialise the store's own cache first
      val (_, q, _) = workloads.head.queries.find(_._1 == "LQ1").get
      val before = spark.sparkContext.getPersistentRDDs.size
      val res = GStoreD.evaluate(dg, q, lvl)
      res.matches.collect()
      assert(spark.sparkContext.getPersistentRDDs.size == before)
    }
  }

  // the general path's Spark jobs: Basic and LA collect the sites' LPMs in
  // one job; LO adds the kept-LPM round, Full also Alg. 4's exchange. No
  // feature of LQ3 survives pruning, so Full skips the kept-LPM round.
  for ((qName, lvl, jobs) <- Seq(("LQ1", OptLevel.Basic, 1), ("LQ1", OptLevel.LA, 1), ("LQ1", OptLevel.LO, 2),
      ("LQ1", OptLevel.Full, 3), ("LQ3", OptLevel.Full, 2))) {
    test(s"$qName at ${lvl.name} runs $jobs Spark job${if (jobs > 1) "s" else ""} and caches nothing") {
      val dg = dgs("LUBM")
      dg.fragTriples.count()
      val (_, q, _) = workloads.head.queries.find(_._1 == qName).get
      val sc = spark.sparkContext
      val before = sc.getPersistentRDDs.keySet
      val group = s"jobs-$qName-${lvl.name}"
      sc.setJobGroup(group, group)
      try GStoreD.evaluate(dg, q, lvl)
      finally sc.clearJobGroup()
      assert(sc.statusTracker.getJobIdsForGroup(group).length == jobs)
      assert(sc.getPersistentRDDs.keySet == before)
    }
  }

  test("a blown maxPMs budget leaves no cached Dataset behind") {
    val dg = dgs("LUBM")
    dg.fragTriples.count()
    val (_, q, _) = workloads.head.queries.find(_._1 == "LQ1").get
    val before = spark.sparkContext.getPersistentRDDs.size
    intercept[SparkException](GStoreD.evaluate(dg, q, OptLevel.Full, maxPMs = 3))
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("star and all-attribute results are not cached, even on a repeat") {
    val w = workloads.head
    val dg = dgsFolded(w.name)
    dg.fragTriples.count()
    val (_, lq2, _) = w.queries.find(_._1 == "LQ2").get
    val scan = QueryGraph.of(s"?x ${LubmData.ptype} ${LubmData.FullProfessor}")
    assert(lq2.fold(dg.attrPreds).core.exists(_.isStar) && scan.fold(dg.attrPreds).core.isEmpty)
    val before = spark.sparkContext.getPersistentRDDs.size
    for (q <- Seq(lq2, lq2, scan, scan)) {
      val res = GStoreD.evaluate(dg, q)
      assert(res.matches.count() == res.stats.numMatches && res.stats.numMatches > 0)
    }
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("LO prunes LPMs before assembly on LQ1") {
    val w = workloads.head
    val (_, q, _) = w.queries.find(_._1 == "LQ1").get
    val s = GStoreD.evaluate(dgs("LUBM"), q, OptLevel.LO).stats
    assert(s.numLpmsKept < s.numLpms)
  }
}
