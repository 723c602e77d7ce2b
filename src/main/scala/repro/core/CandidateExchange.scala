package repro.core

import repro.part.DistributedGraph

/** §VI / Alg. 4 — assembling variables' internal candidates.
  *
  * Each site computes, per query variable `v`, its *internal candidates*:
  * internal vertices that have a locally-matching incident edge for every
  * triple pattern incident to `v` (internal vertices see all their edges
  * locally, so this is a complete per-site filter). The candidates are
  * hashed into fixed-length bit vectors, OR-ed at the coordinator and
  * broadcast back; `LocalMatcher` then drops bindings whose bit is unset.
  *
  * All variables are computed in one Spark job: one task per site over its
  * resident fragment returns each variable's candidate count and vector.
  * Shipment is metered as the smaller of the dense vector and the sparse id
  * list per (site, variable) — plus the fixed-length broadcast back — which
  * is why selective queries ship far less (as in Table I).
  */
object CandidateExchange {

  final case class Result(bits: CandidateBits, shipmentBytes: Long, timeMs: Long)

  /** One way for a binding `c` of a variable to be supported at its site:
    * an edge labelled `pred` (any label when negative) with `c` at the
    * subject (`cIsSubject`) or object end, and `other` at the far end when
    * it is a constant (negative: any vertex).
    */
  private final case class Req(pred: Long, cIsSubject: Boolean, other: Long)

  def run(dg: DistributedGraph, q: EncodedQuery, len: Int = 1 << 14): Result = {
    val t0 = System.nanoTime()
    val varVertices = (0 until q.n).filter(q.vertices(_).isVar)
    val reqs: IndexedSeq[Seq[Req]] = varVertices.map { v =>
      def constAt(w: Int) = if (w != v && !q.vertices(w).isVar) q.vertices(w).constId else -1L
      // one requirement per (incident edge, side at which v occurs) ...
      q.incident(v).flatMap { e =>
        (if (e.src == v) Seq(Req(e.predId, cIsSubject = true, constAt(e.dst))) else Nil) ++
          (if (e.dst == v) Seq(Req(e.predId, cIsSubject = false, constAt(e.src))) else Nil)
      } ++ // ... plus one per folded attribute constraint (gStore signature filter)
        q.constraints.getOrElse(v, Nil).map { case (p, o) => Req(p, cIsSubject = true, o) }
    }

    // per site and variable: (candidate count, hashed candidate vector)
    val perSite = dg.fragTriples.rdd
      .mapPartitions { it =>
        val trips = it.toArray
        Iterator(reqs.map { rs =>
          val cands = rs.map { r =>
            trips.iterator.flatMap { t =>
              val (c, cFrag, far) = if (r.cIsSubject) (t.s, t.sFrag, t.o) else (t.o, t.oFrag, t.s)
              val ok = (r.pred < 0 || t.p == r.pred) && cFrag == t.frag && (r.other < 0 || far == r.other)
              if (ok) Some(c) else None
            }.toSet
          }.reduce(_ intersect _)
          (cands.size, CandidateBits.fromBits(len, cands.map(CandidateBits.bitOf(_, len))))
        })
      }
      .collect()

    var shipment = 0L
    val bits = varVertices.indices.map { i =>
      val words = new Array[Long](CandidateBits.wordsFor(len))
      perSite.foreach { site =>
        val (n, ws) = site(i)
        // upload: per site, the smaller of the dense vector and the id list
        if (n > 0) shipment += math.min(len / 8L, 8L * n)
        ws.indices.foreach(w => words(w) |= ws(w))
      }
      // download: the OR-ed fixed-length vector to every site
      shipment += dg.k.toLong * (len / 8L)
      varVertices(i) -> words
    }.toMap
    Result(CandidateBits(len, bits), shipment, (System.nanoTime() - t0) / 1000000)
  }
}
