package repro.core

/** §V — assembling local partial matches at the coordinator.
  *
  * [[lec]] is the LEC-feature-based assembly (Alg. 3): LPMs are bucketed by
  * their LEC feature; the complete feature combinations found by
  * [[LecPruning.combos]] (Thm. 4) drive the joins, so only LPM tuples whose
  * features provably reach an all-ones LECSign are ever merged, and the
  * per-pair joinability test collapses to a binding-consistency check
  * (Thms. 2–3).
  *
  * [[basic]] is the VLDBJ'16-style baseline: the feature join of
  * [[LecPruning]] run directly over local partial matches, with every
  * pairwise test paying the full joinability check. Its join space is the
  * quantity the paper's LEC optimizations shrink; a test budget makes
  * blowups report as DNF rather than hanging (the paper's baselines time
  * out similarly).
  */
object Assembly {

  final case class Stats(
      pairTests: Long,
      featureJoinTests: Long,
      numMatches: Int,
      dnf: Boolean = false,
  )

  /** LEC-feature-based assembly (Alg. 3).
    *
    * @param features distinct features, parallel to `combos`' indices
    * @param combos   complete feature combinations from [[LecPruning]]
    */
  def lec(
      q: EncodedQuery,
      pms: IndexedSeq[PMRow],
      features: IndexedSeq[LecFeature],
      combos: LecPruning.Combos,
  ): (Vector[Vector[Long]], Stats) = {
    val featId = features.zipWithIndex.toMap
    val byFeature = pms.groupBy(pm => featId(LecFeature.of(pm)))
    var pairTests = 0L
    val matches = Vector.newBuilder[Vector[Long]]
    var nMatches = 0

    combos.complete.foreach { combo =>
      // smallest buckets first keeps intermediate products minimal
      val buckets = combo.map(f => byFeature.getOrElse(f, IndexedSeq.empty)).sortBy(_.size)
      if (buckets.forall(_.nonEmpty)) {
        var items: Vector[Array[Long]] = buckets.head.iterator.map(_.bind.toArray).toVector
        buckets.tail.foreach { bucket =>
          if (items.nonEmpty) {
            val next = Vector.newBuilder[Array[Long]]
            items.foreach { it =>
              bucket.foreach { pm =>
                pairTests += 1
                val m = LecPruning.merge(it, pm.bind)
                if (m != null) next += m
              }
            }
            items = next.result()
          }
        }
        items.foreach { m => matches += m.toVector; nMatches += 1 }
      }
    }
    (matches.result(), Stats(pairTests, combos.stats.joinTests, nMatches))
  }

  /** Basic (no-LEC) assembly baseline: [[LecPruning.join]] over the raw
    * LPMs, so every pairwise test pays the full joinability check (>=1
    * shared crossing-edge mapping, no conflicting mapping, disjoint
    * LECSigns, and full binding consistency: the VLDBJ'16 conditions).
    */
  def basic(
      q: EncodedQuery,
      pms: IndexedSeq[PMRow],
      budget: Long = LecPruning.DefaultBudget,
  ): (Vector[Vector[Long]], Stats) = {
    val stats = LecPruning.Stats()
    val matches = Vector.newBuilder[Vector[Long]]
    val done = LecPruning.join(q, pms, budget, stats, bySign = false)((_, bind) => matches += bind.toVector)
    val ms = matches.result()
    (ms, Stats(stats.joinTests, 0, ms.size, dnf = !done))
  }
}
