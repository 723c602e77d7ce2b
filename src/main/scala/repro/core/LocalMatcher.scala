package repro.core

import repro.part.FragTriple
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
  * the paper's per-site partial evaluation stage. The indexes below are
  * built from the partition's rows on each run.
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
    // ---- fragment indexes -------------------------------------------------
    val owner = mutable.HashMap.empty[Long, Int]
    val fwd = mutable.HashMap.empty[(Long, Long), mutable.ArrayBuffer[Long]] // (s,p) -> o
    val bwd = mutable.HashMap.empty[(Long, Long), mutable.ArrayBuffer[Long]] // (o,p) -> s
    val byPredS = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]] // p -> s
    val byPredO = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]] // p -> o
    val pairPreds = mutable.HashMap.empty[(Long, Long), mutable.ArrayBuffer[Long]] // (s,o) -> p
    val edgeSet = mutable.HashSet.empty[(Long, Long, Long)]

    trips.foreach { t =>
      owner(t.s) = t.sFrag; owner(t.o) = t.oFrag
      if (edgeSet.add((t.s, t.p, t.o))) {
        fwd.getOrElseUpdate((t.s, t.p), mutable.ArrayBuffer.empty) += t.o
        bwd.getOrElseUpdate((t.o, t.p), mutable.ArrayBuffer.empty) += t.s
        byPredS.getOrElseUpdate(t.p, mutable.ArrayBuffer.empty) += t.s
        byPredO.getOrElseUpdate(t.p, mutable.ArrayBuffer.empty) += t.o
        pairPreds.getOrElseUpdate((t.s, t.o), mutable.ArrayBuffer.empty) += t.p
      }
    }
    if (edgeSet.isEmpty) return Vector.empty

    @inline def internal(v: Long): Boolean = owner(v) == frag
    @inline def inMask(m: Long, v: Int): Boolean = (m & (1L << v)) != 0

    val out = Vector.newBuilder[PMRow]
    var emitted = 0

    /** Matching predicates for query edge `e` over a bound data pair. */
    def predsFor(e: QEdge, a: Long, b: Long): Seq[Long] =
      if (e.predId >= 0) { if (edgeSet((a, e.predId, b))) Seq(e.predId) else Nil }
      else pairPreds.get((a, b)).map(_.toSeq.distinct).getOrElse(Nil)

    // ---- one search per internal core I -----------------------------------
    for (imask <- q.connectedMasks if (imask & need) == need) {
      val smask = imask | q.neighborhood(imask)
      val xmask = smask & ~imask
      // X == ∅ forces I == V^Q (Q is connected): the all-internal case.
      if (xmask != 0 || imask == q.fullMask) {
        val checkEdges = q.edges.filter(e => inMask(imask, e.src) || inMask(imask, e.dst))

        // BFS bind order over (S, checkEdges); prefer a constant seed.
        val sVerts = (0 until q.n).filter(inMask(smask, _))
        val seed = sVerts
          .filter(inMask(imask, _))
          .minByOption(v => if (q.vertices(v).isVar) 1 else 0)
          .get
        val order = mutable.ArrayBuffer[(Int, QEdge)]((seed, null))
        val placed = mutable.HashSet(seed)
        var cursor = 0
        while (cursor < order.length) {
          val (u, _) = order(cursor); cursor += 1
          checkEdges.foreach { e =>
            val w = if (e.src == u) e.dst else if (e.dst == u) e.src else -1
            if (w >= 0 && inMask(smask, w) && !placed.contains(w)) {
              placed += w
              order += ((w, e))
            }
          }
        }
        // (S, checkEdges) is connected by construction; every S vertex placed.
        assert(placed.size == sVerts.size, s"bind order misses vertices for I=$imask")

        val bind = Array.fill[Long](q.n)(PMRow.NULL)

        /** Candidate values for binding `w` through discovered edge `via`. */
        def candidates(w: Int, via: QEdge): Seq[Long] = {
          val qv = q.vertices(w)
          val raw: Seq[Long] =
            if (via == null) {
              if (!qv.isVar) Seq(qv.constId).filter(owner.contains)
              else {
                // seed a variable from one of its incident checked edges
                val e = checkEdges.find(e => e.src == w || e.dst == w).get
                if (e.predId >= 0) {
                  val lst = if (e.src == w) byPredS.get(e.predId) else byPredO.get(e.predId)
                  lst.map(_.toSeq.distinct).getOrElse(Nil)
                } else {
                  // variable predicate: any endpoint at this side
                  val all = if (e.src == w) edgeSet.iterator.map(_._1) else edgeSet.iterator.map(_._3)
                  all.toSeq.distinct
                }
              }
            } else {
              val u = if (via.src == w) via.dst else via.src
              val fu = bind(u)
              if (via.predId >= 0) {
                val lst = if (via.src == w) bwd.get((fu, via.predId)) else fwd.get((fu, via.predId))
                lst.map(_.toSeq.distinct).getOrElse(Nil)
              } else {
                val vals =
                  if (via.src == w) edgeSet.iterator.collect { case (s, _, o) if o == fu => s }
                  else edgeSet.iterator.collect { case (s, _, o) if s == fu => o }
                vals.toSeq.distinct
              }
            }
          raw.filter { c =>
            (if (qv.isVar) cand.pass(w, c) else c == qv.constId) &&
            (if (inMask(imask, w))
               // internal bindings carry all their attribute edges locally
               internal(c) && q.constraints.getOrElse(w, Nil).forall { case (cp, co) =>
                 edgeSet((c, cp, co))
               }
             else !internal(c))
          }
        }

        /** All checked edges between `w` and already-bound vertices hold? */
        def edgesOk(w: Int): Boolean =
          checkEdges.forall { e =>
            val other = if (e.src == w) e.dst else if (e.dst == w) e.src else -1
            if (other < 0 || bind(other) == PMRow.NULL) true
            else predsFor(e, bind(e.src), bind(e.dst)).nonEmpty
          }

        def emit(): Unit = {
          // assign predicates; variable-predicate edges branch over options
          val options: Seq[Seq[(Int, Long)]] = checkEdges.map { e =>
            predsFor(e, bind(e.src), bind(e.dst)).map(p => e.idx -> p)
          }
          def combos(rem: Seq[Seq[(Int, Long)]], acc: List[(Int, Long)]): Unit = rem match {
            case Seq() =>
              val predOf = acc.toMap
              val cross = checkEdges.iterator
                .filter(e => inMask(imask, e.src) ^ inMask(imask, e.dst))
                .map(e => Cross(e.idx, bind(e.src), predOf(e.idx), bind(e.dst)))
                .toSeq
                .sortBy(c => (c.edge, c.su, c.p, c.ou))
              emitted += 1
              if (emitted > maxPMs)
                throw new IllegalStateException(
                  s"LPM blowup in fragment $frag: more than $maxPMs local partial matches")
              out += PMRow(frag, bind.toVector, imask, cross)
            case head +: tail => head.foreach(hp => combos(tail, hp :: acc))
          }
          combos(options, Nil)
        }

        def dfs(pos: Int): Unit =
          if (pos == order.length) emit()
          else {
            val (w, via) = order(pos)
            candidates(w, via).foreach { c =>
              bind(w) = c
              if (edgesOk(w)) dfs(pos + 1)
              bind(w) = PMRow.NULL
            }
          }

        dfs(0)
        java.util.Arrays.fill(bind, PMRow.NULL)
      }
    }
    out.result()
  }
}
