package repro.core

import repro.SparkSpec
import repro.bench.Workloads
import repro.part.{DistributedGraph, FragTriple, Partitioners}
import repro.rdf.RdfGraph

class CandidateExchangeSpec extends SparkSpec {

  // a --p--> b --q--> c ; d --p--> b (b is the only ?y candidate)
  private lazy val g = RdfGraph.fromStrings(Seq(
    ("a", "p", "b"), ("b", "q", "c"), ("d", "p", "b"), ("e", "q", "c")))
  private lazy val owners = Map(
    g.dict.id("a") -> 0, g.dict.id("b") -> 1, g.dict.id("c") -> 0,
    g.dict.id("d") -> 1, g.dict.id("e") -> 1)
  private lazy val dg = DistributedGraph.fromOwners(spark, g, owners, 2)
  private lazy val q = QueryGraph.of("?x p ?y", "?y q ?z").encode(g.dict).get

  test("internal candidates require every incident pattern to match") {
    val res = CandidateExchange.run(dg, q, len = 256)
    // ?y needs an incoming p and an outgoing q: only b qualifies (site 1)
    assert(res.bits.pass(1, g.dict.id("b")))
    // e has q but no incoming p: not a candidate anywhere (modulo hashing,
    // which cannot collide here with only one bit set)
    val set = Seq("a", "b", "c", "d", "e").map(g.dict.id).filter(res.bits.pass(1, _))
    assert(set == Seq(g.dict.id("b")))
  }

  test("per-variable vectors are independent") {
    val res = CandidateExchange.run(dg, q, len = 256)
    assert(res.bits.pass(0, g.dict.id("a"))) // ?x: a has outgoing p
    assert(res.bits.pass(0, g.dict.id("d")))
    assert(!res.bits.pass(0, g.dict.id("c")))
    assert(res.bits.pass(2, g.dict.id("c"))) // ?z: c has incoming q
  }

  test("constants get no vector (unfiltered)") {
    val qc = QueryGraph.of("?x p b").encode(g.dict).get
    val res = CandidateExchange.run(dg, qc, len = 256)
    assert(!res.bits.bits.contains(1))
    assert(res.bits.pass(1, 12345L))
  }

  test("shipment is positive and bounded by the dense-vector total") {
    val res = CandidateExchange.run(dg, q, len = 256)
    assert(res.shipmentBytes > 0)
    // upload <= k * nVars * len/8, download == k * nVars * len/8
    assert(res.shipmentBytes <= 2L * dg.k * 3 * (256 / 8))
  }

  test("bit vectors never exclude bindings that appear in real matches") {
    val res = CandidateExchange.run(dg, q, len = 64)
    val want = BruteForce.centralMatches(g.triples, q)
    want.foreach { m =>
      (0 until q.n).foreach(i => assert(res.bits.pass(i, m(i))))
    }
  }

  test("Full equals LO on LUBM despite the extra filtering") {
    val wl = Workloads.lubm("test")
    val dgl = DistributedGraph.build(spark, wl.graph, Partitioners.Hash, 4)
    val (_, lq6, _) = wl.queries.find(_._1 == "LQ6").get
    val a = GStoreD.evaluate(dgl, lq6, OptLevel.LO).matches.collect().map(_.toSeq).toSet
    val b = GStoreD.evaluate(dgl, lq6, OptLevel.Full).matches.collect().map(_.toSeq).toSet
    dgl.fragTriples.unpersist()
    assert(a == b)
  }

  test("Full never generates more LPMs than LO") {
    val wl = Workloads.lubm("test")
    val dgl = DistributedGraph.build(spark, wl.graph, Partitioners.Hash, 4)
    val (_, lq3, _) = wl.queries.find(_._1 == "LQ3").get
    val lo = GStoreD.evaluate(dgl, lq3, OptLevel.LO).stats
    val full = GStoreD.evaluate(dgl, lq3, OptLevel.Full).stats
    dgl.fragTriples.unpersist()
    assert(full.numLpms <= lo.numLpms)
  }

  // --- exactness: the bits are the §VI candidate sets, not just a superset --
  private lazy val lubm = Workloads.lubm("test")
  private lazy val lubmStores = Seq(
    DistributedGraph.build(spark, lubm.graph, Partitioners.Hash, 4),
    DistributedGraph.build(spark, lubm.graph, Partitioners.Hash, 4, lubm.attrPreds))

  /** The entity core `GStoreD.evaluate` encodes, with its folded constraints. */
  private def encoded(dg: DistributedGraph, query: QueryGraph): EncodedQuery = {
    val folded = query.fold(dg.attrPreds)
    val core = folded.core.get
    val dict = dg.graph.dict
    val cons = folded.constraints.map { case (t, cs) =>
      core.vertexTerms.indexOf(t) -> cs.map { case (p, o) => (dict.id(p), dict.id(o)) }
    }
    core.encode(dict).get.copy(constraints = cons)
  }

  /** §VI from the stored rows: site i's candidates for `v` are its internal
    * vertices with a matching incident edge for every (edge, side at which
    * `v` occurs) and every folded attribute constraint. Returns the OR-ed
    * vectors and the metered shipment.
    */
  private def reference(rows: Vector[FragTriple], k: Int, q: EncodedQuery, len: Int)
      : (Map[Int, Array[Long]], Long) = {
    var shipment = 0L
    val bits = (0 until q.n).filter(q.vertices(_).isVar).map { v =>
      def constOf(w: Int) = if (w != v && !q.vertices(w).isVar) Some(q.vertices(w).constId) else None
      // (predicate or -1, v is the subject, constant at the other end)
      val reqs = q.incident(v).flatMap { e =>
        (if (e.src == v) Seq((e.predId, true, constOf(e.dst))) else Nil) ++
          (if (e.dst == v) Seq((e.predId, false, constOf(e.src))) else Nil)
      } ++ q.constraints.getOrElse(v, Nil).map { case (p, o) => (p, true, Some(o)) }
      val perSite = (0 until k).map { f =>
        val site = rows.filter(_.frag == f)
        val out = site.groupBy(_.s)
        val in = site.groupBy(_.o)
        val internal = site.flatMap(t => Seq(t.s -> t.sFrag, t.o -> t.oFrag)).collect {
          case (u, owner) if owner == f => u
        }.distinct
        internal.filter { c =>
          reqs.forall { case (p, vIsSubject, other) =>
            val edges = if (vIsSubject) out.getOrElse(c, Nil) else in.getOrElse(c, Nil)
            edges.exists { t =>
              (p < 0 || t.p == p) && other.forall(_ == (if (vIsSubject) t.o else t.s))
            }
          }
        }
      }
      perSite.foreach(cs => if (cs.nonEmpty) shipment += math.min(len / 8L, 8L * cs.size))
      shipment += k * (len / 8L)
      v -> CandidateBits.fromBits(len, perSite.flatten.map(CandidateBits.bitOf(_, len)))
    }.toMap
    (bits, shipment)
  }

  for (name <- Seq("LQ1", "LQ3", "LQ6", "LQ7")) {
    test(s"$name: bits and shipment are exactly the §VI candidate sets") {
      val (_, query, _) = lubm.queries.find(_._1 == name).get
      lubmStores.foreach { dgl =>
        val q = encoded(dgl, query)
        val len = 1 << 14
        val res = CandidateExchange.run(dgl, q, len)
        val (bits, shipment) = reference(dgl.fragTriples.collect().toVector, dgl.k, q, len)
        assert(res.bits.len == len)
        assert(res.bits.bits.keySet == bits.keySet)
        bits.foreach { case (v, ws) => assert(res.bits.bits(v).sameElements(ws), s"vertex $v") }
        assert(res.shipmentBytes == shipment)
      }
    }
  }
}
