package perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One traced interval. Spans of one query share `query`; `parent` is the
  * span that caused this one (-1 for a root).
  */
final case class Span(id: Int, name: String, parent: Int, query: Int, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spark work attributed to one job group. */
final case class SparkCounts(jobs: Long, tasks: Long, shuffleBytes: Long, executorRunMs: Long) {
  def +(o: SparkCounts): SparkCounts =
    SparkCounts(jobs + o.jobs, tasks + o.tasks, shuffleBytes + o.shuffleBytes, executorRunMs + o.executorRunMs)
}

object SparkCounts {
  val zero: SparkCounts = SparkCounts(0, 0, 0, 0)
}

/** Counts Spark jobs, tasks, shuffle-write bytes and executor run time per
  * job group. Listener events arrive asynchronously: call [[drain]] before
  * reading [[counts]].
  */
final class SparkCounter(sc: SparkContext) extends SparkListener {
  private val groupKey = "spark.jobGroup.id"
  private val byGroup = mutable.HashMap.empty[String, SparkCounts]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private var barrierGroup = ""
  private var barrierJob = -1
  private var barrierDone = new CountDownLatch(0)
  private var barriers = 0

  private def add(group: String, c: SparkCounts): Unit =
    byGroup(group) = byGroup.getOrElse(group, SparkCounts.zero) + c

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(groupKey))).foreach { g =>
      if (g == barrierGroup) barrierJob = e.jobId else add(g, SparkCounts(1, 0, 0, 0))
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(groupKey))).foreach { g =>
      stageGroup(e.stageInfo.stageId) = g
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { g =>
      val m = e.taskMetrics
      val shuffle = if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten
      val run = if (m == null) 0L else m.executorRunTime
      add(g, SparkCounts(0, 1, shuffle, run))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobId == barrierJob) barrierDone.countDown()
  }

  /** Returns once every event posted before this call has been delivered:
    * runs a one-task job in a fresh group and waits for its end event, which
    * the listener queue delivers after all earlier events.
    */
  def drain(): Unit = {
    val (group, latch) = synchronized {
      barriers += 1
      barrierGroup = s"perfbench.barrier.$barriers"
      barrierDone = new CountDownLatch(1)
      (barrierGroup, barrierDone)
    }
    sc.setJobGroup(group, "listener barrier")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    require(latch.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain within 60 s")
  }

  def counts(group: String): SparkCounts = synchronized(byGroup.getOrElse(group, SparkCounts.zero))
}

/** In-memory span recorder; spans are written out once, at the end. */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[Int]
  private var currentQuery = -1

  def all: Vector[Span] = spans.toVector

  /** Starts a new root span for query `q`; layer spans inside `body` nest under it. */
  def query[A](q: Int, name: String)(body: => A): A = {
    currentQuery = q
    span(name)(body)
  }

  def span[A](name: String)(body: => A): A = {
    val id = spans.size
    spans += Span(id, name, open.headOption.getOrElse(-1), currentQuery, System.nanoTime(), 0L)
    open.push(id)
    try body
    finally {
      open.pop()
      spans(id) = spans(id).copy(endNs = System.nanoTime())
    }
  }

  /** Span duration minus the part of it its children cover (ms). */
  def selfMs(s: Span): Double = s.ms - spans.iterator.filter(_.parent == s.id).map(_.ms).sum

  def write(path: java.nio.file.Path): Unit = {
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    val lines = spans.iterator.map { s =>
      f"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"query":${s.query},""" +
        f""""start_ms":${(s.startNs - t0) / 1e6}%.3f,"end_ms":${(s.endNs - t0) / 1e6}%.3f,""" +
        f""""self_ms":${selfMs(s)}%.3f}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}
