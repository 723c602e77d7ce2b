package repro.part

/** §VII partitioning cost model.
  *
  * `p_F(v) = |N(v) ∩ E^c| / (2|E^c|)`; `E_F(v) = |N(v) ∩ E^c| * p_F(v)`;
  * `E_F(V) = Σ_v E_F(v)`;
  * `Cost(F) = E_F(V) × max_i |E_i ∪ E_i^c|`.
  *
  * Read off the store's per-site counts (one pass over the sites).
  */
object PartitionCost {

  final case class Breakdown(
      numCrossing: Long,
      expectation: Double, // E_F(V)
      maxFragEdges: Long, // max_i |E_i ∪ E_i^c|
  ) {
    def cost: Double = expectation * maxFragEdges
  }

  def breakdown(dg: DistributedGraph): Breakdown = {
    val ec = dg.numCrossingEdges
    val sumSquares = dg.siteStats.valuesIterator.map(_.sumSquares).sum
    val expectation = if (ec == 0) 0.0 else sumSquares.toDouble / (2.0 * ec)
    Breakdown(ec, expectation, dg.storedEdgesPerFrag.values.maxOption.getOrElse(0L))
  }

  def cost(dg: DistributedGraph): Double = breakdown(dg).cost
}
