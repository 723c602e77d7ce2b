package repro.core

/** A LEC feature (Def. 8): the compact representative of a local-partial-
  * match equivalence class — the fragment, the crossing-edge → query-edge
  * mapping `g` (here: the sorted `Cross` list, which carries both the data
  * edge and the query edge index), and the LECSign bitstring.
  */
final case class LecFeature(frag: Int, g: Seq[Cross], sign: Long) {

  /** The partial match this feature stands for in the feature join: its
    * crossing-edge endpoint bindings, NULL elsewhere.
    */
  def row(q: EncodedQuery): PMRow = {
    val bind = Array.fill(q.n)(PMRow.NULL)
    g.foreach { c =>
      val e = q.edges(c.edge)
      bind(e.src) = c.su; bind(e.dst) = c.ou
    }
    PMRow(frag, bind.toSeq, sign, g)
  }

  /** Serialized size in bytes (frag id + 28B per mapping + sign bits) —
    * the paper's `Cost_LF` = O(|E^Q| + |V^Q|).
    */
  def byteSize(n: Int): Long = 4L + 28L * g.size + ((n + 7) / 8)
}

object LecFeature {

  /** Alg. 1 on one LPM — a linear scan of its crossing-edge mappings.
    * (`PMRow.cross` is already the `(data edge, query edge)` mapping list
    * and `PMRow.sign` the LECSign, so extraction is a projection; the
    * set-level dedup of Alg. 1 line 15 happens in each site's task under
    * LO/Full, and on the driver's collected LPMs under LA.)
    */
  def of(pm: PMRow): LecFeature = LecFeature(pm.frag, pm.cross, pm.sign)
}
