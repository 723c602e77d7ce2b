package repro.core

import repro.part.FragTriple

/** Brute-force reference implementations used as test oracles.
  *
  * [[def5LPMs]] literally enumerates every function `f : V^Q → V(F_k) ∪
  * {NULL}` and checks Def. 5's six conditions (plus PM connectivity). One
  * strengthening, implied by Thm. 1 and applied by the paper's framework:
  * every extended-bound vertex must be adjacent in Q to an internal-bound
  * vertex — otherwise two LPMs with identical crossing edges could have
  * different induced query subgraphs, contradicting Thm. 1 (such bindings
  * carry no local evidence and the per-site evaluator never emits them).
  *
  * [[centralMatches]] enumerates full homomorphic matches (Def. 3) over an
  * undistributed triple set.
  *
  * [[completeFeatureSets]] enumerates the complete combinations of Alg. 2
  * straight from Def. 9 and Thm. 4.
  */
object BruteForce {

  /** All (bindings, LECSign) pairs valid per Def. 5 in one fragment. */
  def def5LPMs(frag: Int, trips: Seq[FragTriple], q: EncodedQuery): Set[(Vector[Long], Long)] = {
    val owner = trips.flatMap(t => Seq(t.s -> t.sFrag, t.o -> t.oFrag)).toMap
    val verts = owner.keys.toVector.sorted
    val edges = trips.map(t => (t.s, t.p, t.o)).toSet
    def internal(v: Long) = owner(v) == frag
    def hasEdge(a: Long, b: Long) = edges.exists(e => e._1 == a && e._3 == b)
    def hasMatchingEdge(a: Long, b: Long, pred: Long) =
      if (pred >= 0) edges.contains((a, pred, b)) else hasEdge(a, b)

    val out = Set.newBuilder[(Vector[Long], Long)]
    val domain = (PMRow.NULL +: verts).toArray
    val bind = Array.fill[Long](q.n)(PMRow.NULL)

    def check(): Unit = {
      // conditions 1 & 2: constants
      for (i <- 0 until q.n; if bind(i) != PMRow.NULL && !q.vertices(i).isVar)
        if (bind(i) != q.vertices(i).constId) return
      if (bind.forall(_ == PMRow.NULL)) return
      // condition 3
      for (e <- q.edges) {
        val a = bind(e.src); val b = bind(e.dst)
        if (a != PMRow.NULL && b != PMRow.NULL) {
          val ok = hasMatchingEdge(a, b, e.predId) ||
            (!hasEdge(a, b) && !internal(a) && !internal(b))
          if (!ok) return
        }
      }
      // condition 5: internal vertices have all query neighbours matched
      for (e <- q.edges) {
        val a = bind(e.src); val b = bind(e.dst)
        if ((a != PMRow.NULL && internal(a)) || (b != PMRow.NULL && internal(b))) {
          if (a == PMRow.NULL || b == PMRow.NULL) return
          if (!hasMatchingEdge(a, b, e.predId)) return
        }
      }
      // condition 6: internal-mapped query vertices weakly connected in Q
      val imask = (0 until q.n).foldLeft(0L) { (m, i) =>
        if (bind(i) != PMRow.NULL && internal(bind(i))) m | (1L << i) else m
      }
      if (imask == 0) return
      if (!q.isConnected(imask)) return
      // Thm.-1 strengthening: extended-bound vertices adjacent to internal
      for (i <- 0 until q.n; if bind(i) != PMRow.NULL && !internal(bind(i))) {
        val anchored = q.neighbors(i).exists(j => bind(j) != PMRow.NULL && internal(bind(j)))
        if (!anchored) return
      }
      // condition 4: at least one crossing edge among the matched edges;
      // also collect matched edges for the connectivity check
      val matched = q.edges.flatMap { e =>
        val a = bind(e.src); val b = bind(e.dst)
        if (a != PMRow.NULL && b != PMRow.NULL && hasMatchingEdge(a, b, e.predId)) Some((a, b))
        else None
      }
      val isComplete = imask == q.fullMask
      val hasCrossing = matched.exists { case (a, b) => !internal(a) || !internal(b) }
      if (!isComplete && !hasCrossing) return
      // PM connectivity over the image graph
      val nodes = bind.filter(_ != PMRow.NULL).toSet
      if (nodes.nonEmpty) {
        var seen = Set(nodes.head)
        var changed = true
        while (changed) {
          changed = false
          matched.foreach { case (a, b) =>
            if (seen(a) && !seen(b)) { seen += b; changed = true }
            if (seen(b) && !seen(a)) { seen += a; changed = true }
          }
        }
        if (seen != nodes) return
      }
      out += ((bind.toVector, imask))
    }

    def rec(i: Int): Unit =
      if (i == q.n) check()
      else domain.foreach { v => bind(i) = v; rec(i + 1); bind(i) = PMRow.NULL }

    rec(0)
    out.result()
  }

  /** All complete homomorphic matches of `q` over the whole triple set. */
  def centralMatches(triples: Seq[(Long, Long, Long)], q: EncodedQuery): Set[Vector[Long]] = {
    val edges = triples.toSet
    val verts = triples.flatMap(t => Seq(t._1, t._3)).distinct.toArray
    val bind = Array.fill[Long](q.n)(-1L)
    val out = Set.newBuilder[Vector[Long]]

    def ok(i: Int): Boolean =
      q.edges.forall { e =>
        val a = bind(e.src); val b = bind(e.dst)
        a < 0 || b < 0 ||
        (if (e.predId >= 0) edges.contains((a, e.predId, b))
         else edges.exists(t => t._1 == a && t._3 == b))
      }

    def rec(i: Int): Unit =
      if (i == q.n) out += bind.toVector
      else {
        val qv = q.vertices(i)
        val cands = if (qv.isVar) verts else Array(qv.constId)
        cands.foreach { v =>
          bind(i) = v
          if (ok(i)) rec(i + 1)
          bind(i) = -1L
        }
      }

    rec(0)
    out.result()
  }

  /** Every set of at most `q.n` features whose LECSigns are pairwise
    * disjoint and OR to all-ones, that map no query edge to two crossing
    * edges and no query vertex to two data vertices, and that are connected
    * by shared crossing edges.
    */
  def completeFeatureSets(q: EncodedQuery, fs: IndexedSeq[LecFeature]): Set[Set[Int]] = {
    require(fs.forall(_.sign != 0), "a feature maps some query vertex to an internal vertex")
    def consistent(s: Seq[Int]): Boolean = {
      val edges = s.flatMap(fs(_).g).groupBy(_.edge).values
      val binds = s.flatMap(fs(_).crossBindings(q)).groupBy(_._1).values
      edges.forall(_.distinct.size == 1) && binds.forall(_.map(_._2).distinct.size == 1)
    }
    def connected(s: Seq[Int]): Boolean = {
      def shares(i: Int, j: Int) = fs(i).g.exists(fs(j).g.contains)
      var reached = Set(s.head)
      var grew = true
      while (grew) {
        val next = reached ++ s.filter(i => reached.exists(shares(i, _)))
        grew = next.size > reached.size
        reached = next
      }
      reached.size == s.size
    }
    val out = Set.newBuilder[Set[Int]]
    // a set with two overlapping signs has no valid superset
    def rec(from: Int, chosen: List[Int], sign: Long): Unit =
      if (sign == q.fullMask) { if (consistent(chosen) && connected(chosen)) out += chosen.toSet }
      else if (chosen.size < q.n)
        for (i <- from until fs.size if (fs(i).sign & sign) == 0) rec(i + 1, i :: chosen, sign | fs(i).sign)
    rec(0, Nil, 0L)
    out.result()
  }
}
