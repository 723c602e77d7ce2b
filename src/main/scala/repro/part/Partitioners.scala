package repro.part

import repro.rdf.RdfGraph
import scala.collection.mutable

/** Vertex-disjoint partitioning strategies (§VIII-D).
  *
  * A partitioner assigns every *vertex* (subject/object) to one of `k`
  * fragments; edges follow their endpoints, crossing edges are replicated
  * by [[DistributedGraph]]. Assignments are deterministic in the graph.
  */
trait GraphPartitioner extends Serializable {
  def name: String

  /** vertex id -> fragment in [0, k). Every vertex of `g` must be covered. */
  def assign(g: RdfGraph, k: Int): Map[Long, Int]
}

object Partitioners {

  /** Stable non-negative string hash (JVM String.hashCode is stable, but we
    * mix it so consecutive generator ids spread out).
    */
  private[part] def mix(s: String): Int = {
    var h = scala.util.hashing.MurmurHash3.stringHash(s, 0x9747b28c)
    h ^= (h >>> 16)
    h & 0x7fffffff
  }

  /** Paper default: `H(v) MOD N` over the vertex URI. */
  object Hash extends GraphPartitioner {
    val name = "hash"
    def assign(g: RdfGraph, k: Int): Map[Long, Int] =
      g.vertexIds.iterator.map(v => v -> (mix(g.dict.str(v)) % k)).toMap
  }

  /** Semantic hash partitioning [Lee & Liu, PVLDB'13]-lite: vertices are
    * grouped by URI authority (host); a prefix group larger than
    * `2 x |V|/k` is split by full-URI hash — which is what makes
    * YAGO-style single-namespace data degrade to plain hashing while
    * LUBM-style per-university domains stay together.
    */
  object SemanticHash extends GraphPartitioner {
    val name = "semantic"

    private[part] def prefix(uri: String): String = {
      val schemeEnd = uri.indexOf("://")
      if (schemeEnd < 0) return uri.takeWhile(_ != ':')
      val rest = uri.substring(schemeEnd + 3)
      rest.takeWhile(_ != '/')
    }

    def assign(g: RdfGraph, k: Int): Map[Long, Int] = {
      val verts = g.vertexIds
      val cap = math.max(1L, 2L * verts.size / k)
      val byPrefix = verts.groupBy(v => prefix(g.dict.str(v)))
      val out = Map.newBuilder[Long, Int]
      byPrefix.foreach { case (pfx, vs) =>
        if (vs.size <= cap) {
          val f = mix(pfx) % k
          vs.foreach(v => out += v -> f)
        } else {
          // oversized semantic group: fall back to per-URI hashing
          vs.foreach(v => out += v -> (mix(g.dict.str(v)) % k))
        }
      }
      out.result()
    }
  }

  /** METIS stand-in: BFS region growing toward balanced vertex counts.
    * Like METIS it produces far fewer crossing edges than hashing on
    * locality-structured graphs, and like METIS (as observed in §VIII-D)
    * it can be much more *edge*-imbalanced, because dense regions land in
    * one fragment. Deterministic: seeds are lowest-id unvisited vertices.
    */
  object MetisLike extends GraphPartitioner {
    val name = "metis"

    def assign(g: RdfGraph, k: Int): Map[Long, Int] = {
      val verts = g.vertexIds
      val target = math.max(1, math.ceil(verts.size.toDouble / k).toInt)
      val adj = g.undirectedAdj
      val frag = mutable.HashMap.empty[Long, Int]
      var current = 0
      var filled = 0
      val queue = mutable.ArrayDeque.empty[Long]
      val seeds = verts.iterator
      var seed = seeds.find(!frag.contains(_))
      while (seed.isDefined) {
        queue.clear()
        queue.append(seed.get)
        while (queue.nonEmpty) {
          val v = queue.removeHead()
          if (!frag.contains(v)) {
            frag(v) = current
            filled += 1
            if (filled >= target && current < k - 1) {
              current += 1; filled = 0
              queue.clear() // start a fresh region for the next fragment
            } else {
              adj.getOrElse(v, Vector.empty).foreach { w =>
                if (!frag.contains(w)) queue.append(w)
              }
            }
          }
        }
        seed = seeds.find(!frag.contains(_))
      }
      frag.toMap
    }
  }

  val all: Vector[GraphPartitioner] = Vector(Hash, SemanticHash, MetisLike)
}
