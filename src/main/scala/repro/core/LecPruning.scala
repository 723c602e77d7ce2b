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
  * depth-first worklist search over member sets with global deduplication:
  * each combination is visited exactly once. Extension candidates come from
  * a crossing-edge index whose rows are grouped by LECSign, so only rows
  * sharing a crossing-edge mapping (Def. 9 condition 2) are ever paired,
  * and the feature join probes only the groups whose sign is disjoint from
  * the combination's (condition 4, Thm. 5). Def. 9's remaining conditions
  * are enforced on each extension: condition 1 (different fragments) is
  * implied — two features from the same fragment sharing a crossing edge
  * would both mark the edge's internal endpoint in their LECSign and fail
  * the sign test; condition 3 is checked at vertex granularity by merging
  * bindings (shared vertices must bind identically, which is what Thm. 3's
  * proof uses). Multi-way joins only require the new row to be joinable
  * with the *accumulated* combination (Thm. 4), so two same-fragment
  * features may both participate through a third.
  */
object LecPruning {

  /** Tests a join may run before it reports exhaustion. */
  val DefaultBudget: Long = 50_000_000L

  /** @param joinTests      extension candidates tested: each distinct
    *                       non-member drawn from the crossing-edge index
    *                       (in the feature join, only from sign-disjoint
    *                       groups)
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

  /** Sorted row indices, hashed by content: the search's deduplication key. */
  private final class Members(val ids: Array[Int]) {
    override def hashCode: Int = java.util.Arrays.hashCode(ids)
    override def equals(o: Any): Boolean = o match {
      case m: Members => java.util.Arrays.equals(ids, m.ids)
      case _          => false
    }
    def plus(j: Int): Members = {
      val out = new Array[Int](ids.length + 1)
      val at = -java.util.Arrays.binarySearch(ids, j) - 1
      System.arraycopy(ids, 0, out, 0, at)
      out(at) = j
      System.arraycopy(ids, at, out, at + 1, ids.length - at)
      new Members(out)
    }
  }

  private final class State(
      val members: Members,
      val sign: Long,
      val cross: Array[Cross], // query-edge idx -> data crossing edge, null = unmapped
      val bind: Array[Long], // query-vertex idx -> data vertex, NULL = unbound
  )

  /** The rows of one crossing edge that share one LECSign. */
  private final class Group(val sign: Long, val rows: Array[Int])

  private def start(q: EncodedQuery, i: Int, r: PMRow): State = {
    val cross = new Array[Cross](q.edges.size)
    r.cross.foreach(c => cross(c.edge) = c)
    new State(new Members(Array(i)), r.sign, cross, r.bind.toArray)
  }

  /** Def. 9 conditions 2–4 of row `r` against the accumulated state. */
  private def joins(st: State, r: PMRow): Boolean =
    (st.sign & r.sign) == 0 &&
      !r.cross.exists(c => st.cross(c.edge) != null && st.cross(c.edge) != c) &&
      consistent(st.bind, r.bind)

  /** `st` extended by a row that [[joins]] it, as the member set `members`. */
  private def extend(st: State, members: Members, r: PMRow): State = {
    val cross = st.cross.clone()
    r.cross.foreach(c => cross(c.edge) = c)
    new State(members, st.sign | r.sign, cross, merge(st.bind, r.bind))
  }

  /** No query vertex is bound to two different data vertices. */
  private def consistent(a: Array[Long], b: Seq[Long]): Boolean = {
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (x >= 0 && y >= 0 && x != y) return false
      i += 1
    }
    true
  }

  /** Merged bindings of two partial matches, or null when a query vertex
    * is bound to two different data vertices.
    */
  private[core] def merge(a: Array[Long], b: Seq[Long]): Array[Long] =
    if (consistent(a, b)) Array.tabulate(a.length)(i => math.max(a(i), b(i))) else null

  /** Pairwise Def.-9 joinability: condition 1, a shared crossing edge, and
    * the search's extension test (used by tests).
    */
  def joinable(q: EncodedQuery, a: LecFeature, b: LecFeature): Boolean =
    a.frag != b.frag && a.g.exists(b.g.contains) && joins(start(q, 0, a.row(q)), b.row(q))

  /** The worklist join over partial matches: calls `found` with the sorted
    * member indices and merged bindings of every combination of `rows`
    * whose signs OR to all-ones. Counts its work in `stats`.
    *
    * @param bySign probe only the index groups whose LECSign is disjoint
    *               from the state's; without it every row sharing a
    *               crossing edge is drawn and fails the sign test itself,
    *               as in the VLDBJ'16 baseline
    * @return false when more than `budget` tests ran before the search ended
    */
  private[core] def join(q: EncodedQuery, rows: IndexedSeq[PMRow], budget: Long, stats: Stats, bySign: Boolean)(
      found: (Array[Int], Array[Long]) => Unit): Boolean = {
    val full = q.fullMask

    // crossing-edge index: Cross -> its rows, grouped by LECSign
    val crossIdx = {
      val idx = mutable.HashMap.empty[Cross, mutable.HashMap[Long, mutable.ArrayBuffer[Int]]]
      rows.indices.foreach { i =>
        val r = rows(i)
        r.cross.foreach { c =>
          idx.getOrElseUpdate(c, mutable.HashMap.empty).getOrElseUpdate(r.sign, mutable.ArrayBuffer.empty) += i
        }
      }
      idx.map { case (c, groups) => c -> groups.iterator.map { case (s, is) => new Group(s, is.toArray) }.toArray }
    }
    val noGroups = Array.empty[Group]

    val seen = mutable.HashSet.empty[Members]
    val stack = mutable.Stack.empty[State]
    rows.indices.foreach { i =>
      val r = rows(i)
      // a full sign cannot happen for true LPMs (they have >=1 extended
      // vertex), but keep the engine total for robustness
      if (r.sign == full) found(Array(i), r.bind.toArray)
      else stack.push(start(q, i, r))
    }

    // stamp(j) == the current state's ordinal: j was drawn or is a member
    val stamp = Array.fill(rows.size)(-1L)
    var exhausted = false
    while (stack.nonEmpty && !exhausted) {
      val st = stack.pop()
      val ord = stats.statesExplored
      stats.statesExplored += 1
      st.members.ids.foreach(stamp(_) = ord)
      def probe(j: Int): Unit =
        if (stamp(j) != ord && !exhausted) {
          stamp(j) = ord
          stats.joinTests += 1
          val r = rows(j)
          if (joins(st, r)) {
            val members = st.members.plus(j)
            if (seen.add(members)) {
              if ((st.sign | r.sign) == full) {
                stats.completeCombos += 1
                found(members.ids, merge(st.bind, r.bind))
              } else stack.push(extend(st, members, r))
            }
          }
          exhausted = stats.joinTests > budget
        }
      st.cross.foreach { c =>
        if (c != null) crossIdx.getOrElse(c, noGroups).foreach { g =>
          if (!bySign || (g.sign & st.sign) == 0) g.rows.foreach(probe)
        }
      }
    }
    !exhausted
  }

  def combos(q: EncodedQuery, features: IndexedSeq[LecFeature], budget: Long = DefaultBudget): Combos = {
    val stats = Stats()
    val complete = Vector.newBuilder[Vector[Int]]
    val surviving = new Array[Boolean](features.size)
    val done = join(q, features.map(_.row(q)), budget, stats, bySign = true) { (members, _) =>
      complete += members.toVector
      members.foreach(surviving(_) = true)
    }
    if (!done) throw new IllegalStateException(s"LEC feature join blowup: > $budget tests")
    Combos(complete.result(), surviving.indices.filter(surviving).toSet, stats)
  }
}
