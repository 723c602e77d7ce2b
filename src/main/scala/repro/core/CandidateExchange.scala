package repro.core

import org.apache.spark.sql.functions._
import repro.part.DistributedGraph

/** §VI / Alg. 4 — assembling variables' internal candidates.
  *
  * Each site computes, per query variable `v`, its *internal candidates*:
  * internal vertices that have a locally-matching incident edge for every
  * triple pattern incident to `v` (internal vertices see all their edges
  * locally, so this is a complete per-site filter). The candidates are
  * hashed into fixed-length bit vectors, OR-ed at the coordinator and
  * broadcast back; `LocalMatcher` then drops bindings whose bit is unset.
  *
  * The candidate DataFrames are pure Catalyst pipelines over the fragment
  * store. Shipment is metered as the smaller of the dense vector and the
  * sparse id list per (site, variable) — plus the fixed-length broadcast
  * back — which is why selective queries ship far less (as in Table I).
  */
object CandidateExchange {

  final case class Result(bits: CandidateBits, shipmentBytes: Long, timeMs: Long)

  def run(dg: DistributedGraph, q: EncodedQuery, len: Int = 1 << 14): Result = {
    val t0 = System.nanoTime()
    import dg.spark.implicits._

    val varVertices = (0 until q.n).filter(q.vertices(_).isVar)
    var shipment = 0L
    val bitsByVertex = Map.newBuilder[Int, Array[Long]]

    varVertices.foreach { v =>
      // one requirement per (incident edge, side at which v occurs) ...
      val edgeReqs: Seq[(QEdge, Boolean)] = q.incident(v).flatMap { e =>
        (if (e.src == v) Seq(e -> true) else Nil) ++ (if (e.dst == v) Seq(e -> false) else Nil)
      }
      val edgeParts = edgeReqs.zipWithIndex.map { case ((e, vIsSubject), rid) =>
        var df = dg.fragTriples.toDF()
        if (e.predId >= 0) df = df.filter($"p" === e.predId)
        df =
          if (vIsSubject) df.filter($"sFrag" === $"frag")
          else df.filter($"oFrag" === $"frag")
        val other = if (vIsSubject) e.dst else e.src
        val qo = q.vertices(other)
        if (other != v && !qo.isVar)
          df = df.filter((if (vIsSubject) $"o" else $"s") === qo.constId)
        df.select($"frag", (if (vIsSubject) $"s" else $"o").as("c"), lit(rid).as("rid"))
      }
      // ... plus one per folded attribute constraint (gStore signature filter)
      val attrParts = q.constraints.getOrElse(v, Nil).zipWithIndex.map { case ((cp, co), i) =>
        dg.attrSubjects(cp, co).select($"frag", $"s".as("c"), lit(edgeReqs.size + i).as("rid"))
      }
      val parts = edgeParts ++ attrParts
      val cands = parts
        .reduce(_ unionAll _)
        .distinct()
        .groupBy($"frag", $"c")
        .agg(countDistinct($"rid").as("cnt"))
        .filter($"cnt" === parts.size)
        .select($"frag", $"c")
        .cache()

      // upload: per site, the smaller of the dense vector and the id list
      val perFrag = cands.groupBy($"frag").count().as[(Int, Long)].collect().toMap
      (0 until dg.k).foreach { f =>
        val n = perFrag.getOrElse(f, 0L)
        if (n > 0) shipment += math.min(len / 8L, 8L * n)
      }
      // download: the OR-ed fixed-length vector to every site
      shipment += dg.k.toLong * (len / 8L)

      val setBits = cands
        .select($"c")
        .distinct()
        .as[Long]
        .collect()
        .toSeq
        .map(CandidateBits.bitOf(_, len))
      bitsByVertex += v -> CandidateBits.fromBits(len, setBits)
      cands.unpersist()
    }

    val bits = CandidateBits(len, bitsByVertex.result())
    Result(bits, shipment, (System.nanoTime() - t0) / 1000000)
  }
}
