package repro.core

import repro.part.{FragTriple, Site}
import scala.collection.mutable

/** gStore-lite: per-fragment enumeration of Def.-5 local partial matches.
  *
  * Uses the structural characterization implied by the paper's Thm.-1
  * analysis (see DESIGN.md): every LPM is determined by a non-empty,
  * weakly-connected set `I` of query vertices mapped to *internal* vertices
  * (condition 6); condition 5 then forces `S = I ∪ N_Q(I)` to be fully
  * bound, with `X = N_Q(I) \ I` mapped to *extended* vertices; edges with an
  * endpoint in `I` must be matched exactly, edges between two extended-bound
  * vertices carry no constraint (fragments store no ext-ext edges), and the
  * `I`–`X` edges are precisely the crossing edges (condition 4 requires
  * `X ≠ ∅` unless `I` is the full query — an all-internal complete match).
  *
  * Equivalence with a literal brute-force check of Def. 5's six conditions
  * is asserted by `LocalMatcherSpec`.
  *
  * This runs once per site, as one Spark task over that fragment's resident
  * partition of `DistributedGraph.fragTriples`, in parallel across sites —
  * the paper's per-site partial evaluation stage. Every lookup reads the
  * fragment's [[Site]] adjacency, built from the partition's rows on each
  * run.
  */
object LocalMatcher {

  /** Enumerate all LPMs (and all-internal complete matches) of `q` in one
    * fragment. Complete local matches are the returned rows with
    * `sign == q.fullMask` and no crossing edges.
    *
    * @param cand    Alg.-4 candidate bit vectors (use `CandidateBits.empty`
    *                to disable)
    * @param maxPMs  hard cap — fail loudly instead of hanging on a blowup
    * @param need    query vertices every internal core must hold: cores
    *                `I` with `(I & need) != need` are not searched
    */
  def run(
      frag: Int,
      trips: Iterator[FragTriple],
      q: EncodedQuery,
      cand: CandidateBits = CandidateBits.empty,
      maxPMs: Int = 5_000_000,
      need: Long = 0L,
  ): Vector[PMRow] = {
    val site = Site(frag, trips)
    @inline def inMask(m: Long, v: Int): Boolean = (m & (1L << v)) != 0
    // a variable seed is always internal: Alg. 4's internal candidates
    val seeds = mutable.HashMap.empty[Int, Array[Long]]
    val out = Vector.newBuilder[PMRow]
    var emitted = 0

    // ---- one search per internal core I -----------------------------------
    for (imask <- q.connectedMasks if (imask & need) == need) {
      val smask = imask | q.neighborhood(imask)
      // X = S \ I is empty only for I == V^Q (Q is connected): the all-internal case.
      if (smask != imask || imask == q.fullMask) {
        val checkEdges = q.edges.filter(e => inMask(imask, e.src) || inMask(imask, e.dst))

        // BFS bind order over (S, checkEdges) from an internal seed, a constant
        // if there is one. A checked edge's far end from a vertex of S is in S.
        val seed = (0 until q.n).filter(inMask(imask, _)).minBy(v => if (q.vertices(v).isVar) 1 else 0)
        val order = mutable.ArrayBuffer[(Int, QEdge)]((seed, null))
        var placed = 1L << seed
        var cursor = 0
        while (cursor < order.length) {
          val u = order(cursor)._1; cursor += 1
          checkEdges.foreach { e =>
            val w = if (e.src == u) e.dst else if (e.dst == u) e.src else -1
            if (w >= 0 && !inMask(placed, w)) { placed |= 1L << w; order += ((w, e)) }
          }
        }
        assert(placed == smask, s"bind order misses vertices for I=$imask")

        val bind = Array.fill[Long](q.n)(PMRow.NULL)

        /** Candidate values for binding `w` through discovered edge `via`. */
        def candidates(w: Int, via: QEdge): Array[Long] = {
          val qv = q.vertices(w)
          val raw =
            if (via != null) {
              val cs = new mutable.ArrayBuilder.ofLong
              val u = if (via.src == w) via.dst else via.src
              site.edges(bind(u), outgoing = via.src == u, via.predId, -1L) { (_, c) => cs += c; true }
              // a variable predicate can reach one far end through several labels
              if (via.predId < 0) cs.result().distinct else cs.result()
            } else if (qv.isVar) seeds.getOrElseUpdate(w, CandidateExchange.internal(site, q, w))
            else Array(qv.constId)
          // an internal binding carries all its attribute edges locally
          def attrs(c: Long) =
            q.constraints.getOrElse(w, Nil).forall { case (p, o) => site.has(c, outgoing = true, p, o) }
          raw.filter(c => (if (qv.isVar) cand.pass(w, c) else c == qv.constId) &&
            (if (inMask(imask, w)) site.owns(c) && attrs(c) else !site.owns(c)))
        }

        /** All checked edges between `w` and already-bound vertices hold? */
        def edgesOk(w: Int): Boolean =
          checkEdges.forall { e =>
            val other = if (e.src == w) e.dst else if (e.dst == w) e.src else -1
            other < 0 || bind(other) == PMRow.NULL || site.has(bind(e.src), outgoing = true, e.predId, bind(e.dst))
          }

        // a PMRow records the label of a crossing edge only, so only a
        // crossing edge with a variable predicate branches over its labels
        val crossEdges = checkEdges.filter(e => inMask(imask, e.src) ^ inMask(imask, e.dst)).toList
        def emit(es: List[QEdge], cross: List[Cross]): Unit = es match {
          case Nil =>
            emitted += 1
            if (emitted > maxPMs) throw new IllegalStateException(s"LPM blowup in fragment $frag: over $maxPMs LPMs")
            out += PMRow(frag, bind.toVector, imask, cross.sortBy(_.edge))
          case e :: rest =>
            val (a, b) = (bind(e.src), bind(e.dst))
            site.edges(a, outgoing = true, e.predId, b) { (p, _) => emit(rest, Cross(e.idx, a, p, b) :: cross); true }
        }

        def dfs(pos: Int): Unit =
          if (pos == order.length) emit(crossEdges, Nil)
          else {
            val (w, via) = order(pos)
            candidates(w, via).foreach { c =>
              bind(w) = c
              if (edgesOk(w)) dfs(pos + 1)
              bind(w) = PMRow.NULL
            }
          }

        dfs(0)
      }
    }
    out.result()
  }
}
