package repro.core

import scala.collection.mutable

/** §IV-C / Alg. 2 — coordinator-side join of LEC features, and the one
  * worklist join over partial matches that it shares with the basic
  * (VLDBJ'16) assembly.
  *
  * [[combos]] enumerates every consistent, crossing-edge-connected
  * combination of LEC features whose LECSigns OR to all-ones (Thm. 4).
  * Features appearing in no complete combination are pruned together with
  * all their LPMs. A feature stands for its whole class of LPMs, so the
  * search is [[join]] over the feature's [[LecFeature.row]]: the partial
  * match that binds only its crossing-edge endpoints. [[Assembly.basic]]
  * runs the same [[join]] over the LPMs themselves.
  *
  * The paper's DFS over the LECSign-group join graph is realized as a
  * worklist search over member sets with global deduplication — each
  * combination is visited exactly once, and extension candidates come from
  * a crossing-edge hash index, so only rows sharing a crossing-edge mapping
  * (Def. 9 condition 2) are ever paired. Def. 9's remaining conditions are
  * enforced on each extension: condition 1 (different fragments) is implied
  * — two features from the same fragment sharing a crossing edge would both
  * mark the edge's internal endpoint in their LECSign and fail the sign
  * test; condition 3 is checked at vertex granularity by merging bindings
  * (shared vertices must bind identically, which is what Thm. 3's proof
  * uses); condition 4 is the sign-disjointness test. Multi-way joins only
  * require the new row to be joinable with the *accumulated* combination
  * (Thm. 4), so two same-fragment features may both participate through a
  * third.
  */
object LecPruning {

  /** Tests a join may run before it reports exhaustion. */
  val DefaultBudget: Long = 50_000_000L

  /** @param joinTests      extension candidates tested: each distinct
    *                       non-member drawn from the crossing-edge index
    * @param statesExplored combinations taken off the worklist
    * @param completeCombos complete combinations reached by an extension
    */
  final case class Stats(
      var joinTests: Long = 0,
      var statesExplored: Long = 0,
      var completeCombos: Long = 0,
  )

  /** @param complete  feature-index sets whose signs OR to all-ones
    * @param surviving indices of features participating in some complete set
    */
  final case class Combos(
      complete: Vector[Vector[Int]],
      surviving: Set[Int],
      stats: Stats,
  )

  private final case class State(
      members: Vector[Int], // sorted row indices
      sign: Long,
      cross: Map[Int, Cross], // query-edge idx -> data crossing edge
      bind: Array[Long], // query-vertex idx -> data vertex, NULL = unbound
  )

  private def start(i: Int, r: PMRow): State =
    State(Vector(i), r.sign, r.cross.map(c => c.edge -> c).toMap, r.bind.toArray)

  /** Def. 9 conditions 2–4 of row `r` against the accumulated state. */
  private def extend(st: State, j: Int, r: PMRow): Option[State] = {
    if ((st.sign & r.sign) != 0) return None
    if (r.cross.exists(c => st.cross.get(c.edge).exists(_ != c))) return None
    val bind = merge(st.bind, r.bind)
    if (bind == null) None
    else Some(State((st.members :+ j).sorted, st.sign | r.sign, st.cross ++ r.cross.map(c => c.edge -> c), bind))
  }

  /** Merged bindings of two partial matches, or null when a query vertex
    * is bound to two different data vertices.
    */
  private[core] def merge(a: Array[Long], b: Seq[Long]): Array[Long] = {
    val out = new Array[Long](a.length)
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (x >= 0 && y >= 0 && x != y) return null
      out(i) = math.max(x, y)
      i += 1
    }
    out
  }

  /** Pairwise Def.-9 joinability: condition 1, a shared crossing edge, and
    * the search's extension step (used by tests).
    */
  def joinable(q: EncodedQuery, a: LecFeature, b: LecFeature): Boolean =
    a.frag != b.frag && a.g.exists(b.g.contains) && extend(start(0, a.row(q)), 1, b.row(q)).isDefined

  /** The worklist join over partial matches: calls `found` with the sorted
    * member indices and merged bindings of every combination of `rows`
    * whose signs OR to all-ones. Counts its work in `stats`.
    *
    * @return false when more than `budget` tests ran before the search ended
    */
  private[core] def join(q: EncodedQuery, rows: IndexedSeq[PMRow], budget: Long, stats: Stats)(
      found: (Vector[Int], Array[Long]) => Unit): Boolean = {
    val full = q.fullMask

    // crossing-edge hash index: identical Cross -> rows containing it
    val crossIdx = mutable.HashMap.empty[Cross, mutable.ArrayBuffer[Int]]
    rows.zipWithIndex.foreach { case (r, i) =>
      r.cross.foreach(c => crossIdx.getOrElseUpdate(c, mutable.ArrayBuffer.empty) += i)
    }

    val seen = mutable.HashSet.empty[Vector[Int]]
    val stack = mutable.Stack.empty[State]
    rows.zipWithIndex.foreach { case (r, i) =>
      // a full sign cannot happen for true LPMs (they have >=1 extended
      // vertex), but keep the engine total for robustness
      if (r.sign == full) found(Vector(i), r.bind.toArray)
      else stack.push(start(i, r))
    }

    var exhausted = false
    while (stack.nonEmpty && !exhausted) {
      val st = stack.pop()
      stats.statesExplored += 1
      val cands = mutable.HashSet.empty[Int]
      st.cross.valuesIterator.foreach { c =>
        crossIdx.get(c).foreach(_.foreach(j => if (!st.members.contains(j)) cands += j))
      }
      val it = cands.iterator
      while (it.hasNext && !exhausted) {
        val j = it.next()
        stats.joinTests += 1
        extend(st, j, rows(j)).foreach { nx =>
          if (seen.add(nx.members)) {
            if (nx.sign == full) {
              stats.completeCombos += 1
              found(nx.members, nx.bind)
            } else stack.push(nx)
          }
        }
        exhausted = stats.joinTests > budget
      }
    }
    !exhausted
  }

  def combos(q: EncodedQuery, features: IndexedSeq[LecFeature], budget: Long = DefaultBudget): Combos = {
    val stats = Stats()
    val complete = Vector.newBuilder[Vector[Int]]
    val surviving = mutable.HashSet.empty[Int]
    val done = join(q, features.map(_.row(q)), budget, stats) { (members, _) =>
      complete += members
      surviving ++= members
    }
    if (!done) throw new IllegalStateException(s"LEC feature join blowup: > $budget tests")
    Combos(complete.result(), surviving.toSet, stats)
  }
}
