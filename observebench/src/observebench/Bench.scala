package observebench

import java.nio.file.Path

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.exp.Dataset
import repro.sflow.{And, Query}
import repro.track.SortTracker
import repro.video.{CostModel, Det3dRow, Estimators, RunStats, SimDetector}
import repro.world.FrameRow

/** One executed op: latency of the public call with its output
  * materialized, the result digest, the run's statistics and every check
  * that failed.
  */
final case class OpRun(op: Op, pass: Int, seconds: Double, digest: Option[Digest],
                       stats: Option[RunStats], failures: Seq[String], storageMb: Double) {
  def failed: Boolean = failures.nonEmpty
}

/** Runs one workload's ops on a built world and checks every result.
  *
  * `allOps` adds the workload's extra ops to its timed ones. `perturb`
  * appends a bogus row to each engine result before it is checked (the
  * self-test's proof that a wrong result fails its op);
  * `pinning` skips the comparison with pinned digests while they are
  * being written.
  */
final class Bench(spark: SparkSession, ds: Dataset, val workload: String, seed: Long,
                  scenes: Int, runDir: Path, pins: PinnedDigests,
                  allOps: Boolean = false, perturb: Boolean = false, pinning: Boolean = false) {
  import spark.implicits._

  val ops: Seq[Op] = Workloads.all(workload) ++ (if (allOps) Workloads.extra(workload) else Nil)
  lazy val frameCount: Long = ds.frames.count()
  private lazy val frameRows: Array[FrameRow] = ds.frames.as[FrameRow].collect()
  private lazy val cams: Map[(Long, Int), (Double, Double)] =
    ds.frames.select("sceneId", "frameIdx", "camX", "camY").collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> ((r.getDouble(2), r.getDouble(3)))).toMap
  private val firstDigest = mutable.Map.empty[String, Digest]

  /** Spark storage memory (memory + disk) held by cached data, in MB. */
  def storageMb(): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / Tracer.MB

  private def manifest(op: Op): Path = runDir.resolve(s"$workload-$seed").resolve(s"${op.id}.jsonl")

  private def line(s: Snippet): String = s"${s.sceneId},${s.startFrame},${s.endFrame}"

  private def show(xs: Seq[String]): String =
    if (xs.isEmpty) "none" else xs.take(5).mkString("[", "; ", if (xs.size > 5) s"; ... ${xs.size} in all]" else "]")

  private def world(op: Op): SpatialyzeWorld =
    new SpatialyzeWorld(spark, ds.fps).addGeogConstructs(ds.net)
      .addVideo(ds.frames, ds.gtStates).filter(op.query.pred)

  /** The query `SpatialyzeWorld.observe` builds from the op's single filter. */
  private def workflow(op: Op): Query = Query("workflow", "workflow", And(Vector(op.query.pred)))

  /** One op through the public API, timed with its output materialized. */
  def run(op: Op, pass: Int): OpRun = {
    val t0 = System.nanoTime()
    val attempt = Try(op.output match {
      case SaveVideos =>
        val (snips, res) = world(op).saveVideos(manifest(op).toString, op.config)
        (res, snips.map(line))
      case GetObjects =>
        val (objs, res) = world(op).getObjects(op.config)
        (res, objs.collect().toSeq.map(_.mkString(",")))
    })
    val secs = (System.nanoTime() - t0) / 1e9
    attempt match {
      case Failure(e) => OpRun(op, pass, secs, None, None, Seq(s"threw $e"), storageMb())
      case Success((res, out)) =>
        val (digest, fails) = verify(op, res.rows, res.objs, out)
        OpRun(op, pass, secs, digest, Some(res.stats), fails, storageMb())
    }
  }

  /** Every correctness check of one op's result: the output against the
    * engine rows, the engine rows against the SQL-free checker (getObjects
    * ops), and the digest against the pinned one and against pass 0's.
    */
  private def verify(op: Op, rowsDf: DataFrame, objsDf: DataFrame,
                     out: Seq[String]): (Option[Digest], Seq[String]) = Try {
    val rows0 = rowsDf.collect().toSeq.map(_.mkString(","))
    val rows  = if (perturb) rows0 :+ Seq.fill(rowsDf.columns.length)("-1").mkString(",") else rows0
    val fails = Seq.newBuilder[String]
    op.output match {
      case SaveVideos =>
        val want = Expect.snippets(rows)
        if (want != out) fails += s"snippets ${show(out)} differ from the rows' frames ${show(want)}"
        if (Expect.manifest(manifest(op)) != out) fails += "saved manifest differs from returned snippets"
      case GetObjects =>
        val objRows = objsDf.collect().toSeq
        val matched = rows.flatMap { r => val f = r.split(","); f.drop(2).map(o => (f(0), o)) }.toSet
        val want = objRows.filter(r => matched((r.get(0).toString, r.get(2).toString)))
          .map(r => Seq(r.get(0), r.get(2), r.get(1), r.get(3), r.get(4), r.get(5)).mkString(","))
        if (want.sorted != out.sorted)
          fails += s"getObjects returned ${out.size} samples, the matched objects have ${want.size}"
        val ref = SpatialChecker.expected(op.query.pred,
          objRows.map(r => (r.getLong(0), r.getInt(1),
            SpatialChecker.Obj(r.getLong(2), r.getString(3), r.getDouble(4), r.getDouble(5)))),
          cams, ds.net)
        val got = rows.toSet
        // A differing row is listed with its camera and object positions.
        def at(r: String): String = {
          val f   = r.split(",")
          val key = (f(0).toLong, f(1).toInt)
          val pts = f.drop(2).flatMap(o => objRows.find(x => (x.getLong(0), x.getInt(1)) == key &&
            x.get(2).toString == o).map(x => s"${x.getDouble(4)},${x.getDouble(5)}"))
          s"$r @ camera ${cams.get(key).fold("?")(c => s"${c._1},${c._2}")} objects ${pts.mkString(" ")}"
        }
        if (ref != got)
          fails += s"engine rows differ from the SQL-free checker: missing " +
            s"${show((ref -- got).toSeq.sorted.map(at))}, extra ${show((got -- ref).toSeq.sorted.map(at))}"
    }
    val d = Digest.of(rows, out)
    if (!pinning) pins.get((scenes, seed, workload, op.id)).foreach { p =>
      if (p != d) fails += s"digest ($d) differs from the pinned one ($p)"
    }
    firstDigest.get(op.id) match {
      case Some(f) if f != d => fails += s"digest ($d) differs from the first pass's ($f)"
      case None              => firstDigest(op.id) = d
      case _                 =>
    }
    (Some(d), fails.result())
  }.fold(e => (None, Seq(s"check threw $e")), identity)

  /** The op again, with `SpatialyzeWorld.observe`'s steps called one by one
    * inside spans: VideoProcessor.run, QueryEngine.run and the output
    * composer, each timed whole.
    */
  def traced(op: Op, pass: Int, tr: Tracer): OpRun = {
    val key   = s"${op.id}#$pass"
    val query = workflow(op)
    val t0    = System.nanoTime()
    val attempt = Try(tr.span("SpatialyzeWorld", key) {
      val (proc, _) = tr.span("VideoProcessor", key) {
        VideoProcessor.run(spark, ds.frames, ds.gtStates, ds.net, query, op.config, ds.fps)
      }
      val camsDf = ds.frames.select(col("sceneId"), col("frameIdx"),
                                    col("camX").as("x"), col("camY").as("y"),
                                    col("camYaw").as("heading"))
      val (qr, qe) = tr.span("QueryEngine", key) {
        QueryEngine.run(spark, query, proc.objs, camsDf, ds.net.toDF(spark), ds.fps)
      }
      val (out, oc) = tr.span("OutputComposer", key) {
        op.output match {
          case SaveVideos => OutputComposer.saveVideos(qr.rows, manifest(op).toString).map(line)
          case GetObjects => OutputComposer.getObjects(qr.rows, proc.objs).collect().toSeq.map(_.mkString(","))
        }
      }
      (proc, qr, qe, oc, out)
    })
    val secs = (System.nanoTime() - t0) / 1e9
    attempt match {
      case Failure(e) => OpRun(op, pass, secs, None, None, Seq(s"threw $e"), storageMb())
      case Success(((proc, qr, qe, oc, out), sw)) =>
        val stats = proc.stats.copy(queryRowsExamined = qr.rowsExamined)
        val (digest, fails) = verify(op, qr.rows, proc.objs, out)
        val (candidates, cartesians) = PlanStats.joins(qr.rows)
        sw.attrs("modelled_ms") = CostModel.workflowMs(stats)
        qe.attrs ++= Seq("candidate_rows" -> candidates.toDouble,
                         "cartesian_products" -> cartesians.toDouble,
                         "rows_out" -> digest.fold(0.0)(_.rows.toDouble),
                         "rows_examined_modelled" -> qr.rowsExamined.toDouble)
        oc.attrs(if (op.output == SaveVideos) "snippets" else "objects_out") = out.size.toDouble
        OpRun(op, pass, secs, digest, Some(stats), fails, storageMb())
    }
  }

  private def median(xs: Seq[Double]): Double = { val s = xs.sorted; s(s.size / 2) }

  /** Driver-side replay of a per-frame or per-scene kernel: median ms of three runs. */
  private def replayMs[T](body: => T): (T, Double) = {
    val runs = (0 until 3).map { _ =>
      val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e6)
    }
    (runs.head._1, median(runs.map(_._2)))
  }

  /** Replays the video processor's operators in `VideoProcessor.run`'s
    * order, each call timed together with the materialization of its
    * output, plus driver replays of the per-frame / per-scene kernels.
    * Returns every stage count that differs from the untraced run's stats.
    */
  def replay(op: Op, tr: Tracer, untraced: RunStats): Seq[String] = {
    val key    = s"${op.id}#replay"
    val req    = workflow(op).requirements
    val cfg    = op.config
    val cached = mutable.ArrayBuffer.empty[DataFrame]
    val fails  = Seq.newBuilder[String]
    def same(what: String, got: Long, want: Long): Unit =
      if (got != want) fails += s"replayed $what $got differs from the untraced $want"
    def stage(name: String)(df: => DataFrame): (DataFrame, Long, Span) = {
      val ((d, n), s) = tr.span(name, key) { val d = df.persist(); cached += d; (d, d.count()) }
      (d, n, s)
    }
    try tr.span("replay", key) {
      val (kept, nKept) =
        if (!(cfg.rvp && req.rvpTargets.nonEmpty)) (ds.frames, frameCount)
        else {
          val (k, n, s) = stage("RoadVisibilityPruner")(
            RoadVisibilityPruner.prune(spark, ds.frames, ds.net, req.rvpTargets))
          val targets = req.rvpTargets.map { case (t, d) => (ds.net.ofType(t).toArray, d) }
          val (visible, ms) = replayMs(frameRows.count(fr => targets.forall { case (polys, d) =>
            RoadVisibilityPruner.frameVisible(fr, polys, d) }))
          same("driver-visible frames", visible.toLong, n)
          s.attrs ++= Seq("frames_in" -> frameCount.toDouble, "frames_out" -> n.toDouble,
                          "frame_us" -> ms * 1000.0 / frameRows.length)
          (k, n)
        }
      same("framesAfterRvp", nKept, untraced.framesAfterRvp)

      val (dets, nDets, sd) = stage("SimDetector")(SimDetector.detect(spark, kept, ds.gtStates))
      sd.attrs("dets_out") = nDets.toDouble
      same("detections", nDets, untraced.detections)

      val (typed, nTyped) = req.typesOfInterest.filter(_ => cfg.otp) match {
        case Some(types) =>
          val (t, n, s) = stage("ObjectTypePruner")(ObjectTypePruner.prune(dets, types))
          s.attrs("dets_out") = n.toDouble
          (t, n)
        case None => (dets, nDets)
      }
      same("detsAfterOtp", nTyped, untraced.detsAfterOtp)

      val geom = cfg.geom3d && req.geomApplicable
      val (d3, n3, es) = stage("Estimators")(
        if (geom) Estimators.geometry(spark, typed) else Estimators.ml(spark, typed))
      val geomDets = d3.filter(col("method") === "geom").count()
      es.attrs ++= Seq("geom_dets" -> geomDets.toDouble, "ml_dets" -> (n3 - geomDets).toDouble)
      same("geomDets", if (geom) geomDets else 0L, untraced.geomDets)

      val sampled =
        if (!(cfg.efs && req.efsApplicable)) None
        else {
          val (sf, n, s) = stage("ExitFrameSampler")(ExitFrameSampler.sample(spark, kept, d3, ds.net, ds.fps))
          val lanes = ds.net.segments.filter(_.heading.isDefined).toArray
          val inter = ds.net.ofType("intersection").toArray
          val frs   = kept.as[FrameRow].collect().groupBy(_.sceneId)
          val dts   = d3.as[Det3dRow].collect().groupBy(_.sceneId)
          val (picked, ms) = replayMs(frs.toSeq.map { case (sid, fs) =>
            ExitFrameSampler.sampleScene(fs.sortBy(_.frameIdx).toVector,
              dts.getOrElse(sid, Array.empty[Det3dRow]).toSeq.groupBy(_.frameIdx),
              lanes, inter, ds.fps).size
          }.sum)
          same("driver-sampled frames", picked.toLong, n)
          s.attrs ++= Seq("frames_sampled" -> n.toDouble, "scene_ms" -> ms / math.max(1, frs.size))
          Some(sf)
        }

      if (req.needsTracking) {
        val ((ti, nIn), s) = tr.span("SortTracker", key) {
          val ti = sampled.fold(d3)(sf => d3.join(sf, Seq("sceneId", "frameIdx"))).persist()
          val t  = new SortTracker().track(spark, ti).persist()
          cached ++= Seq(ti, t)
          val n = ti.count()
          t.count()
          (ti, n)
        }
        val byScene = ti.as[Det3dRow].collect().groupBy(_.sceneId)
        val pairs = byScene.values.map { scene =>
          val perFrame = scene.groupBy(_.frameIdx).toSeq.sortBy(_._1).map(_._2.length.toLong)
          perFrame.zip(0L +: perFrame).map { case (n, p) => n * p }.sum
        }.sum
        val (_, ms) = replayMs(byScene.values.foreach(scene => new SortTracker().trackScene(scene.toSeq)))
        s.attrs ++= Seq("dets_in" -> nIn.toDouble, "pair_ops" -> pairs.toDouble,
                        "scene_ms" -> ms / math.max(1, byScene.size))
        same("trackerDets", nIn, untraced.trackerDets)
        same("trackerPairOps", pairs, untraced.trackerPairOps)
      }
      fails.result()
    }._1
    finally cached.foreach(_.unpersist())
  }
}
