package observebench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable

import org.apache.spark.{BenchBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.joins.{BaseJoinExec, CartesianProductExec}

/** One traced interval around a call into a layer. `op` groups the spans
  * of one operation; `attrs` holds the counts recorded at the boundary.
  */
final class Span(val id: Int, val name: String, val op: String, val parent: Int,
                 val startNs: Long) {
  var endNs: Long = startNs
  val attrs: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  def ms: Double = (endNs - startNs) / 1e6
  def attr(k: String): Double = attrs.getOrElse(k, 0.0)
}

/** Spark work done by the jobs started while one span was innermost. */
final class Work {
  var jobs, tasks, taskMs, shuffleBytes, gcMs = 0L
  val stageTaskMs: mutable.Map[Int, mutable.ArrayBuffer[Long]] = mutable.Map.empty

  def add(o: Work): Unit = {
    jobs += o.jobs; tasks += o.tasks; taskMs += o.taskMs
    shuffleBytes += o.shuffleBytes; gcMs += o.gcMs
  }
}

/** Listener that charges every job, and its tasks, to the span named by the
  * job's `observebench.span` local property, which the tracer sets on the
  * driver thread while a span is open.
  */
final class SparkCounters extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val work      = mutable.Map.empty[Int, Work]

  def of(span: Int): Work = synchronized { work.getOrElseUpdate(span, new Work) }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .map(_.toInt).getOrElse(-1)
    of(span).jobs += 1
    e.stageIds.foreach(s => stageSpan(s) = span)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val w = of(stageSpan.getOrElse(e.stageId, -1))
    w.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      w.taskMs += m.executorRunTime
      w.gcMs += m.jvmGCTime
      w.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
    w.stageTaskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
  }
}

/** In-memory span recorder with Spark counters attributed per span. */
final class Tracer(sc: SparkContext) {
  val counters = new SparkCounters
  sc.addSparkListener(counters)

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[Span] = Nil

  /** Run `body` inside a new span (child of the innermost open span). */
  def span[T](name: String, op: String)(body: => T): (T, Span) = {
    val s = new Span(spans.size, name, op, open.headOption.fold(-1)(_.id), System.nanoTime())
    spans += s
    val saved = sc.getLocalProperty(Tracer.SpanKey)
    sc.setLocalProperty(Tracer.SpanKey, s.id.toString)
    open ::= s
    try (body, s)
    finally {
      s.endNs = System.nanoTime()
      open = open.tail
      sc.setLocalProperty(Tracer.SpanKey, saved)
    }
  }

  /** Spark work of a span and all its descendants. */
  def inclusive(s: Span): Work = {
    val w = new Work
    w.add(counters.of(s.id))
    spans.iterator.filter(_.parent == s.id).foreach(c => w.add(inclusive(c)))
    w
  }

  /** Wait for Spark's events, then record each span's inclusive work. */
  def settle(): Unit = {
    BenchBus.drain(sc)
    spans.foreach { s =>
      val w = inclusive(s)
      s.attrs ++= Seq("spark_jobs" -> w.jobs.toDouble, "tasks" -> w.tasks.toDouble,
                      "task_ms" -> w.taskMs.toDouble, "shuffle_mb" -> w.shuffleBytes / Tracer.MB,
                      "gc_ms" -> w.gcMs.toDouble)
    }
  }

  /** max / median task time of the span's busiest stage (median floored at 1 ms). */
  def taskSkew(s: Span): Double = {
    val stages = counters.of(s.id).stageTaskMs.values
    if (stages.isEmpty) 0.0
    else {
      val busiest = stages.maxBy(_.sum).sorted
      busiest.last / math.max(1.0, busiest(busiest.size / 2).toDouble)
    }
  }

  def writeJson(path: Path): Unit = {
    val lines = spans.map { s =>
      val attrs = s.attrs.map { case (k, v) => s""""$k": ${Json.num(v)}""" }.mkString(", ")
      s"""{"id": ${s.id}, "name": ${Json.str(s.name)}, "op": ${Json.str(s.op)}, """ +
        s""""parent": ${s.parent}, "start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "attrs": {$attrs}}"""
    }
    Files.createDirectories(path.getParent)
    Files.write(path, lines.mkString("[\n", ",\n", "\n]\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  val SpanKey = "observebench.span"
  val MB: Double = 1024.0 * 1024.0
}

/** Join statistics read from the SQL metrics of the plan that computed a result. */
object PlanStats {
  private def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case q: QueryStageExec        => nodes(q.plan)
    case m: InMemoryTableScanExec => Seq(m) // another cached result: not this query's work
    case o                        => o +: o.children.flatMap(nodes)
  }

  /** (rows output by all joins, CartesianProduct nodes) of `df`'s query.
    * A persisted `df` reads its cache, so the plan that filled the cache is used.
    */
  def joins(df: DataFrame): (Long, Int) = {
    val top = nodes(df.queryExecution.executedPlan)
    val body =
      if (top.exists(_.isInstanceOf[BaseJoinExec])) top
      else top.collectFirst { case m: InMemoryTableScanExec => nodes(m.relation.cachedPlan) }
        .getOrElse(top)
    val rows = body.collect { case j: BaseJoinExec =>
      j.metrics.get("numOutputRows").fold(0L)(_.value)
    }.sum
    (rows, body.count(_.isInstanceOf[CartesianProductExec]))
  }
}

/** Minimal JSON formatting for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString
}
