package repro.part

import scala.collection.mutable

/** One site's fragment as a per-vertex adjacency: each vertex it holds, that
  * vertex's owner, and its stored out- and in-edges as flattened (label, far
  * end) arrays; `internal` lists the vertices it owns. It is built from the
  * site's partition of `DistributedGraph.fragTriples` on every pass and never
  * cached, so the store stays the one resident copy. Alg. 4's internal
  * candidates, the Def.-5 matcher and the signature scan all read it.
  */
final class Site private (frag: Int, val internal: Array[Long], verts: Array[Long], slots: Array[Int],
    owner: Array[Int], out: Site.Adj, in: Site.Adj) {

  private def index(v: Long): Int = slots(Site.slot(slots, verts, v)) - 1

  def owns(v: Long): Boolean = { val i = index(v); i >= 0 && owner(i) == frag }

  /** Feeds `f(label, far end)` the stored edges of `v` leaving it
    * (`outgoing`) or entering it, labelled `p` and with far end `far` (a
    * negative `p` or `far` matches anything), while `f` returns true. False
    * once `f` stops it.
    */
  def edges(v: Long, outgoing: Boolean, p: Long, far: Long)(f: (Long, Long) => Boolean): Boolean = {
    val i = index(v)
    if (i < 0) return true
    val a = if (outgoing) out else in
    var j = a.at(i)
    while (j < a.at(i + 1)) {
      if ((p < 0 || a.label(j) == p) && (far < 0 || a.far(j) == far) && !f(a.label(j), a.far(j))) return false
      j += 1
    }
    true
  }

  /** Does `v` have such an edge? */
  def has(v: Long, outgoing: Boolean, p: Long, far: Long): Boolean = !edges(v, outgoing, p, far)((_, _) => false)
}

object Site {

  /** Vertex `i`'s edges are slots `at(i) until at(i + 1)`. */
  private final class Adj(val at: Array[Int], val label: Array[Long], val far: Array[Long])

  /** Where `v` is in an open-addressing table over `verts`, or the empty
    * slot where it would go. A slot holds a vertex index plus one, 0 if empty.
    */
  private def slot(slots: Array[Int], verts: Array[Long], v: Long): Int = {
    var s = java.lang.Long.hashCode(v * 0x9e3779b97f4a7c15L) & (slots.length - 1)
    while (slots(s) != 0 && verts(slots(s) - 1) != v) s = (s + 1) & (slots.length - 1)
    s
  }

  /** Reads the rows of fragment `frag`, which are distinct (the store holds
    * a triple once per host fragment).
    */
  def apply(frag: Int, rows: Iterator[FragTriple]): Site = {
    val ts = rows.toArray
    // vertices indexed in order of first appearance; the table is under half full
    val slots = new Array[Int](Integer.highestOneBit(4 * ts.length + 1) << 1)
    val verts = new Array[Long](2 * ts.length)
    val owner = new Array[Int](2 * ts.length)
    val internal = new mutable.ArrayBuilder.ofLong
    var n = 0
    def index(v: Long, f: Int): Int = {
      val s = slot(slots, verts, v)
      if (slots(s) == 0) { verts(n) = v; owner(n) = f; n += 1; slots(s) = n; if (f == frag) internal += v }
      slots(s) - 1
    }
    val src = ts.map(t => index(t.s, t.sFrag))
    val dst = ts.map(t => index(t.o, t.oFrag))
    // a counting sort of the rows by their near end
    def adj(near: Array[Int], far: Array[Int]): Adj = {
      val at = new Array[Int](n + 1)
      near.foreach(i => at(i + 1) += 1)
      (1 to n).foreach(i => at(i) += at(i - 1))
      val next = at.clone()
      val (labels, ends) = (new Array[Long](ts.length), new Array[Long](ts.length))
      ts.indices.foreach { j =>
        labels(next(near(j))) = ts(j).p
        ends(next(near(j))) = verts(far(j))
        next(near(j)) += 1
      }
      new Adj(at, labels, ends)
    }
    new Site(frag, internal.result(), verts.take(n), slots, owner, adj(src, dst), adj(dst, src))
  }
}
