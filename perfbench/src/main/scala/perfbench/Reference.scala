package perfbench

import java.sql.DriverManager
import org.apache.spark.sql.Row
import repro.core.{BgpSql, QueryGraph}
import repro.rdf.RdfGraph

/** DuckDB answers for the benchmark queries, computed in-process before any
  * timing, and the row-multiset comparison applied to every timed result.
  */
object Reference {

  /** A query answer: rows of ids in `QueryGraph.variables` order, sorted. */
  type Answer = Vector[Vector[Long]]

  private def sorted(rows: Iterable[Vector[Long]]): Answer =
    rows.toVector.sorted(Ordering.Implicits.seqOrdering[Vector, Long])

  /** Answers of `queries` over `g`, each compiled by `BgpSql.sql`. A query
    * naming a constant absent from the data has the empty answer.
    */
  def answers(g: RdfGraph, queries: Seq[(String, QueryGraph)]): Map[String, Answer] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      conn.createStatement.execute("CREATE TABLE triples (s BIGINT, p BIGINT, o BIGINT)")
      val app = conn.asInstanceOf[org.duckdb.DuckDBConnection].createAppender("main", "triples")
      g.triples.foreach { case (s, p, o) =>
        app.beginRow(); app.append(s); app.append(p); app.append(o); app.endRow()
      }
      app.close()
      queries.map { case (name, q) =>
        val rows = BgpSql.sql(q, g.dict) match {
          case None => Vector.empty
          case Some(sql) =>
            val rs = conn.createStatement.executeQuery(sql)
            val n = q.variables.size
            val out = Vector.newBuilder[Vector[Long]]
            while (rs.next()) out += Vector.tabulate(n)(i => rs.getLong(i + 1))
            out.result()
        }
        name -> sorted(rows)
      }.toMap
    } finally conn.close()
  }

  /** Engine rows reordered to `q.variables`, for comparison with [[answers]]. */
  def ofRows(q: QueryGraph, columns: Seq[String], rows: Array[Row]): Answer = {
    val idx = q.variables.map(v => columns.indexOf(v))
    require(idx.forall(_ >= 0), s"result columns ${columns.mkString(",")} miss a query variable")
    sorted(rows.iterator.map(r => idx.map(r.getLong)).toVector)
  }
}
