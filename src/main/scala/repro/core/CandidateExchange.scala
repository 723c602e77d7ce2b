package repro.core

import repro.part.{DistributedGraph, Site}

/** §VI / Alg. 4 — assembling variables' internal candidates.
  *
  * Each site computes, per query variable `v`, its *internal candidates*:
  * internal vertices that have a locally-matching incident edge for every
  * triple pattern incident to `v` (internal vertices see all their edges
  * locally, so this is a complete per-site filter). The candidates are
  * hashed into fixed-length bit vectors, OR-ed at the coordinator and
  * broadcast back; `LocalMatcher` then drops bindings whose bit is unset.
  *
  * All variables are computed in one Spark job: one task per site reads its
  * resident fragment into a [[Site]] and returns each variable's vector and
  * upload size.
  * Shipment is metered as the smaller of the dense vector and the sparse id
  * list per (site, variable) — plus the fixed-length broadcast back — which
  * is why selective queries ship far less (as in Table I).
  */
object CandidateExchange {

  final case class Result(bits: CandidateBits, shipmentBytes: Long, timeMs: Long)

  /** Internal candidates of variable `v` at `site`: its internal vertices
    * with a matching edge for every (incident edge, side at which `v`
    * occurs), with the far end fixed when it is a constant, and every folded
    * attribute constraint (the gStore signature filter). The matcher seeds
    * an internal core from the same set.
    */
  private[core] def internal(site: Site, q: EncodedQuery, v: Int): Array[Long] = {
    def constAt(w: Int) = if (w != v && !q.vertices(w).isVar) q.vertices(w).constId else -1L
    // (label or -1, v is the subject, far end or -1)
    val reqs = q.incident(v).flatMap { e =>
      (if (e.src == v) Seq((e.predId, true, constAt(e.dst))) else Nil) ++
        (if (e.dst == v) Seq((e.predId, false, constAt(e.src))) else Nil)
    } ++ q.constraints.getOrElse(v, Nil).map { case (p, o) => (p, true, o) }
    site.internal.filter(c => reqs.forall { case (p, out, far) => site.has(c, out, p, far) })
  }

  def run(dg: DistributedGraph, q: EncodedQuery, len: Int = 1 << 14): Result = {
    val t0 = System.nanoTime()
    val varVertices = (0 until q.n).filter(q.vertices(_).isVar)

    // per site and variable: the hashed candidate vector, and its upload:
    // the smaller of the dense vector and the id list
    val perSite = dg.fragTriples.rdd
      .mapPartitionsWithIndex { (f, it) =>
        val site = Site(f, it)
        Iterator(varVertices.map { v =>
          val cands = internal(site, q, v)
          val upload = if (cands.isEmpty) 0L else math.min(len / 8L, 8L * cands.length)
          (CandidateBits.fromBits(len, cands.map(CandidateBits.bitOf(_, len))), upload)
        })
      }
      .collect()

    // download: the OR-ed fixed-length vector of every variable to every site
    val shipment = perSite.iterator.flatten.map(_._2).sum + varVertices.size * dg.k.toLong * (len / 8L)
    val bits = varVertices.indices.map { i =>
      varVertices(i) -> perSite.map(_(i)._1).reduce((a, b) => Array.tabulate(a.length)(w => a(w) | b(w)))
    }.toMap
    Result(CandidateBits(len, bits), shipment, (System.nanoTime() - t0) / 1000000)
  }
}
