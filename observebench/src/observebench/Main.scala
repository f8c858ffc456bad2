package observebench

import java.nio.file.{Path, Paths}

import scala.collection.mutable

import org.apache.spark.sql.SparkSession
import repro.exp.{Dataset, Scenarios}
import repro.jobs.JobSession

/** Benchmark of `SpatialyzeWorld` observe calls.
  *
  * {{{
  * Main --workload trajectory|spatial-join --seed N --seconds S --trace 0|1
  *      [--scenes 4] [--pin]
  * Main --selftest
  * }}}
  *
  * Run from the repository root. `--trace 0` measures the end-to-end
  * metrics: a set-up and a first pass in the fresh JVM, then warm passes
  * of the workload's ops (one client, closed loop) while the next pass is
  * predicted to end within S seconds (at least one), then eight more
  * set-ups in restarted sessions (the median of the nine counts).
  * `--trace 1` is the separate traced run that gives the per-layer
  * metrics: an untraced first pass, one traced pass, an untraced pass and
  * the operator replay. `--pin` adds each workload's extra ops and pins
  * the first pass's digests. Human-readable lines come first; the last line is
  * `RESULT {json}`. Run files and traces go to `RunDir`; pinned digests
  * live in `PinsFile`.
  */
object Main {

  final case class Args(workload: String = "", seed: Long = 7, seconds: Int = 10,
                        trace: Boolean = false, scenes: Int = 4,
                        pin: Boolean = false, selftest: Boolean = false)

  val RunDir: Path   = Paths.get(".bench_build", "observebench", "run")
  val PinsFile: Path = Paths.get("observebench", "digests.tsv")
  val Setups         = 9

  private def parse(args: List[String], a: Args = Args()): Args = args match {
    case "--workload" :: v :: t => parse(t, a.copy(workload = v))
    case "--seed" :: v :: t     => parse(t, a.copy(seed = v.toLong))
    case "--seconds" :: v :: t  => parse(t, a.copy(seconds = v.toInt))
    case "--trace" :: v :: t    => parse(t, a.copy(trace = v == "1"))
    case "--scenes" :: v :: t   => parse(t, a.copy(scenes = v.toInt))
    case "--pin" :: t           => parse(t, a.copy(pin = true))
    case "--selftest" :: t      => parse(t, a.copy(selftest = true))
    case Nil                    => a
    case other => throw new IllegalArgumentException(s"unknown arguments: ${other.mkString(" ")}")
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val a = parse(argv.toList)
        if (a.selftest) SelfTest.run()
        else {
          require(Workloads.all.contains(a.workload),
            s"--workload must be one of ${Workloads.all.keys.toSeq.sorted.mkString(", ")}")
          require(a.seconds >= 1 && a.scenes >= 1, "--seconds and --scenes must be positive")
          if (a.trace) traced(a) else untraced(a)
        }
      } catch { case e: Throwable => e.printStackTrace(); 1 }
      finally SparkSession.getDefaultSession.foreach(_.stop())
    sys.exit(code)
  }

  private def now: Long = System.nanoTime()
  private def secsSince(t0: Long): Double = (now - t0) / 1e9
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Value at the highest percentile with at least ten samples beyond it:
    * (value, percentile, samples). With ten or fewer samples, the maximum.
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted
    val i = math.max(0, s.size - 11)
    if (s.size <= 10) (s.last, 100.0, s.size) else (s(i), 100.0 * (i + 1) / s.size, s.size)
  }

  private def f(v: Double, digits: Int = 4): String = s"%.${digits}f".format(v)

  private def result(correct: Boolean, attempted: Int, failed: Int,
                     metrics: Seq[(String, String, Double)]): String = {
    val ms = metrics.map { case (n, u, v) => s"${Json.str(n)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}" }
    s"""RESULT {"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def header(a: Args, spark: SparkSession, b: Bench): String =
    s"observebench workload=${a.workload} seed=${a.seed} scenes=${a.scenes} " +
      s"frames=${b.frameCount} master=${spark.sparkContext.master} " +
      s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")} ops/pass=${b.ops.size}"

  private def listFailures(runs: Seq[OpRun]): Unit = {
    val bad = runs.filter(_.failed)
    println(s"failed ops: ${if (bad.isEmpty) "none" else bad.size.toString}")
    bad.foreach(r => r.failures.foreach(m => println(s"  FAILED pass=${r.pass} op=${r.op.id}: $m")))
  }

  private def newBench(a: Args, spark: SparkSession, ds: Dataset): Bench =
    new Bench(spark, ds, a.workload, a.seed, a.scenes, RunDir,
              new PinnedDigests(PinsFile), allOps = a.pin, pinning = a.pin)

  /** Spark session start plus world generation, frames and truth materialized. */
  private def setup(a: Args): (SparkSession, Dataset, Double) = {
    val t0    = now
    val spark = JobSession.spark("observebench")
    val ds    = Scenarios.nuscenes(spark, a.scenes, a.seed)
    (spark, ds, secsSince(t0))
  }

  private def teardown(spark: SparkSession, ds: Dataset): Unit = {
    ds.frames.unpersist(); ds.gtStates.unpersist(); spark.stop()
  }

  private def untraced(a: Args): Int = {
    // The first set-up and pass 0 run in the fresh JVM; the passes follow.
    val (spark, ds, coldS) = setup(a)
    val b = newBench(a, spark, ds)
    val storage0 = b.storageMb()

    val first = b.ops.map(b.run(_, 0))
    val warm  = mutable.ArrayBuffer.empty[OpRun]
    val t0    = now
    var pass  = 1
    var lastS = 0.0
    while (warm.isEmpty || secsSince(t0) + lastS <= a.seconds) {
      val p0 = now
      warm ++= b.ops.map(b.run(_, pass))
      lastS = secsSince(p0)
      pass += 1
    }
    val head = header(a, spark, b)
    // Then set up again, in a session restarted in the same JVM.
    teardown(spark, ds)
    val setups = coldS +: (2 to Setups).map { _ =>
      val (sp, d, secs) = setup(a)
      teardown(sp, d)
      secs
    }
    val all = first ++ warm

    val setupS   = median(setups)
    val firstS   = first.map(_.seconds).sum
    val passS    = warm.groupBy(_.pass).values.map(_.map(_.seconds).sum).toSeq
    val fps      = b.frameCount.toDouble * b.ops.size / median(passS)
    val p50      = median(warm.map(_.seconds).toSeq)
    val (tv, tp, tn) = tail(warm.map(_.seconds).toSeq)
    val failed   = all.count(_.failed)
    val retained = (all.last.storageMb - storage0) / all.size

    println(head)
    println(s"  setup_s            ${f(setupS)} s  (median of ${setups.size} set-ups: cold " +
      s"${setups.map(f(_, 3)).mkString(", then restarted ")})")
    println(s"  first_pass_s       ${f(firstS)} s  (pass 0, ${first.size} ops, after the cold set-up)")
    println(s"  video_fps          ${f(fps, 2)} frames/s  (${b.frameCount} frames x ${b.ops.size} ops " +
      s"/ median of ${passS.size} warm passes, ${f(median(passS), 3)} s)")
    println(s"  observe_s_p50      ${f(p50)} s  (median of ${warm.size} warm ops)")
    println(s"  observe_s_tail     ${f(tv)} s  (p${f(tp, 1)} of $tn warm ops, " +
      s"${if (tn > 10) 10 else 0} beyond)")
    println(s"  failed_ops_ratio   ${f(failed.toDouble / all.size)} ratio  ($failed of ${all.size} ops)")
    println(s"  retained_mb_per_op ${f(retained)} MB  (${f(all.last.storageMb, 1)} MB held after " +
      s"${all.size} ops, ${f(storage0, 1)} MB before)")
    println("per op (warm): op plan median_s rows out")
    b.ops.foreach { op =>
      val rs = warm.filter(_.op == op)
      val d  = all.find(_.op == op).flatMap(_.digest)
      println(s"  ${op.id} ${op.plan} ${f(median(rs.map(_.seconds).toSeq))} " +
        s"${d.fold("-")(_.rows.toString)} ${d.fold("-")(_.out.toString)}")
    }
    listFailures(all.toSeq)

    if (a.pin) {
      // Only results that pass every other check are pinned.
      val pins = new PinnedDigests(PinsFile)
      val (good, bad) = first.partition(r => !r.failed && r.digest.isDefined)
      good.foreach(r => pins.pin((a.scenes, a.seed, a.workload, r.op.id), r.digest.get))
      pins.save()
      println(s"pinned ${good.size} digests for scenes=${a.scenes} seed=${a.seed} in $PinsFile" +
        (if (bad.isEmpty) "" else s"; not pinned (failed): ${bad.map(_.op.id).mkString(", ")}"))
    }

    // The tail is printed above but not gated: with fewer than 11 warm ops
    // it is the slowest of a few samples, too noisy across seeds.
    println(result(failed == 0, all.size, failed, Seq(
      ("setup_s", "s", setupS), ("first_pass_s", "s", firstS), ("video_fps", "frames/s", fps),
      ("observe_s_p50", "s", p50))))
    0
  }

  private def traced(a: Args): Int = {
    val spark = JobSession.spark("observebench")
    val tr    = new Tracer(spark.sparkContext)
    val (ds, scen) = tr.span("Scenarios", "setup")(Scenarios.nuscenes(spark, a.scenes, a.seed))
    scen.attrs ++= Seq("frame_rows" -> ds.frames.count().toDouble, "gt_rows" -> ds.gtStates.count().toDouble)
    val b = newBench(a, spark, ds)
    val cores = spark.sparkContext.defaultParallelism

    // An untraced first pass warms the JVM; the traced pass is compared
    // with the untraced pass after it.
    val storage0   = b.storageMb()
    val untraced0  = b.ops.map(b.run(_, 0))
    val tracedRuns = b.ops.map(b.traced(_, 1, tr))
    val reference  = b.ops.map(b.run(_, 2))
    val retained   = (reference.last.storageMb - storage0) / (3 * b.ops.size)

    val consistency = b.ops.zip(reference).map { case (op, r) =>
      r.stats.fold(Seq("no untraced stats to compare"))(b.replay(op, tr, _))
    }
    tr.settle()
    tr.spans.filter(_.name == "SortTracker").foreach(s => s.attrs("task_skew") = tr.taskSkew(s))

    val nT = tracedRuns.size.toDouble
    val nR = b.ops.size.toDouble
    def spans(layer: String) = tr.spans.filter(_.name == layer)
    def wall(layer: String) = spans(layer).map(_.ms).sum
    def tot(layer: String, k: String) = spans(layer).map(_.attr(k)).sum
    def mean(layer: String, k: String) = if (spans(layer).isEmpty) 0.0 else tot(layer, k) / spans(layer).size
    def ratio(x: Double, y: Double) = if (y == 0) 0.0 else x / y

    val untracedPass = reference.map(_.seconds).sum
    val tracedPass   = tracedRuns.map(_.seconds).sum
    val overhead     = tracedPass - untracedPass

    val metrics: Seq[(String, String, Double)] = Seq(
      ("Scenarios.wall_ms", "ms", scen.ms),
      ("Scenarios.frame_rows", "count", scen.attr("frame_rows")),
      ("Scenarios.gt_rows", "count", scen.attr("gt_rows")),
      ("SpatialyzeWorld.spark_jobs", "count", tot("SpatialyzeWorld", "spark_jobs") / nT),
      ("SpatialyzeWorld.modelled_ms", "ms", tot("SpatialyzeWorld", "modelled_ms") / nT),
      ("VideoProcessor.wall_ms", "ms", wall("VideoProcessor") / nT),
      ("VideoProcessor.spark_jobs", "count", tot("VideoProcessor", "spark_jobs") / nT),
      ("VideoProcessor.task_ms", "ms", tot("VideoProcessor", "task_ms") / nT),
      ("VideoProcessor.core_busy_ratio", "ratio",
        ratio(tot("VideoProcessor", "task_ms"), wall("VideoProcessor") * cores)),
      ("VideoProcessor.shuffle_mb", "MB", tot("VideoProcessor", "shuffle_mb") / nT),
      ("RoadVisibilityPruner.wall_ms", "ms", wall("RoadVisibilityPruner") / nR),
      ("RoadVisibilityPruner.frames_in", "count", tot("RoadVisibilityPruner", "frames_in") / nR),
      ("RoadVisibilityPruner.frames_out", "count", tot("RoadVisibilityPruner", "frames_out") / nR),
      ("RoadVisibilityPruner.frame_us", "us", mean("RoadVisibilityPruner", "frame_us")),
      ("SimDetector.wall_ms", "ms", wall("SimDetector") / nR),
      ("SimDetector.dets_out", "count", tot("SimDetector", "dets_out") / nR),
      ("SimDetector.shuffle_mb", "MB", tot("SimDetector", "shuffle_mb") / nR),
      ("ObjectTypePruner.wall_ms", "ms", wall("ObjectTypePruner") / nR),
      ("ObjectTypePruner.dets_out", "count", tot("ObjectTypePruner", "dets_out") / nR),
      ("Estimators.wall_ms", "ms", wall("Estimators") / nR),
      ("Estimators.geom_dets", "count", tot("Estimators", "geom_dets") / nR),
      ("Estimators.ml_dets", "count", tot("Estimators", "ml_dets") / nR),
      ("ExitFrameSampler.wall_ms", "ms", wall("ExitFrameSampler") / nR),
      ("ExitFrameSampler.frames_sampled", "count", tot("ExitFrameSampler", "frames_sampled") / nR),
      ("ExitFrameSampler.scene_ms", "ms", mean("ExitFrameSampler", "scene_ms")),
      ("SortTracker.wall_ms", "ms", wall("SortTracker") / nR),
      ("SortTracker.dets_in", "count", tot("SortTracker", "dets_in") / nR),
      ("SortTracker.pair_ops", "count", tot("SortTracker", "pair_ops") / nR),
      ("SortTracker.task_skew", "ratio", mean("SortTracker", "task_skew")),
      ("SortTracker.scene_ms", "ms", mean("SortTracker", "scene_ms")),
      ("QueryEngine.wall_ms", "ms", wall("QueryEngine") / nT),
      ("QueryEngine.spark_jobs", "count", tot("QueryEngine", "spark_jobs") / nT),
      ("QueryEngine.candidate_rows", "count", tot("QueryEngine", "candidate_rows") / nT),
      ("QueryEngine.rows_out", "count", tot("QueryEngine", "rows_out") / nT),
      ("QueryEngine.match_ratio", "ratio",
        ratio(tot("QueryEngine", "rows_out"), tot("QueryEngine", "candidate_rows"))),
      ("QueryEngine.cartesian_products", "count", tot("QueryEngine", "cartesian_products") / nT),
      ("QueryEngine.rows_examined_modelled", "count", tot("QueryEngine", "rows_examined_modelled") / nT),
      ("QueryEngine.shuffle_mb", "MB", tot("QueryEngine", "shuffle_mb") / nT),
      ("OutputComposer.wall_ms", "ms", wall("OutputComposer") / nT),
      ("OutputComposer.snippets", "count", tot("OutputComposer", "snippets") / nT),
      ("OutputComposer.objects_out", "count", tot("OutputComposer", "objects_out") / nT),
      ("spark.gc_ms", "ms", tot("SpatialyzeWorld", "gc_ms") / nT),
      ("spark.cached_mb", "MB", median(tracedRuns.map(_.storageMb).toSeq)),
      ("spark.retained_mb_per_op", "MB", retained),
      ("trace.overhead_s", "s", overhead))

    println(header(a, spark, b))
    println(s"per layer (per op; replayed operators once per op, the rest over ${nT.toInt} traced ops):")
    metrics.foreach { case (n, u, v) => println(f"  $n%-38s ${f(v, 3)}%14s $u") }
    println(s"tracing overhead: traced pass ${f(tracedPass, 3)} s - untraced pass " +
      s"${f(untracedPass, 3)} s = ${f(overhead, 3)} s")
    println("measured vs modelled per op (wall ms per traced op; modelled ms is CostModel.workflowMs, " +
      "a paper-calibrated model, not a measurement):")
    println("  op         modelled_ms  measured_ms  VideoProcessor  QueryEngine  OutputComposer")
    b.ops.foreach { op =>
      def opMs(layer: String) = {
        val ss = spans(layer).filter(_.op.startsWith(op.id + "#"))
        if (ss.isEmpty) 0.0 else ss.map(_.ms).sum / ss.size
      }
      val modelled = spans("SpatialyzeWorld").filter(_.op.startsWith(op.id + "#")).map(_.attr("modelled_ms"))
      println(f"  ${op.id}%-10s ${f(if (modelled.isEmpty) 0.0 else modelled.sum / modelled.size, 0)}%11s " +
        f"${f(opMs("SpatialyzeWorld"), 0)}%12s ${f(opMs("VideoProcessor"), 0)}%15s " +
        f"${f(opMs("QueryEngine"), 0)}%12s ${f(opMs("OutputComposer"), 0)}%15s")
    }

    val consistencyRuns = b.ops.zip(consistency).map { case (op, fs) =>
      OpRun(op, -1, 0.0, None, None, fs, 0.0)
    }
    val all = untraced0 ++ reference ++ tracedRuns ++ consistencyRuns
    println(s"consistency (replayed stage counts = untraced stats; traced digests = untraced): " +
      s"${if (consistencyRuns.exists(_.failed) || tracedRuns.exists(_.failed)) "FAILED" else "ok"}")
    listFailures(all.toSeq)
    val trace = RunDir.resolve(s"trace-${a.workload}-${a.seed}.json")
    tr.writeJson(trace)
    println(s"spans: ${tr.spans.size} written to $trace")
    val failed = all.count(_.failed)
    println(result(failed == 0, all.size, failed, metrics))
    0
  }
}

/** Tiny-scale self-test of the benchmark (2 scenes, 1 pass per workload):
  * every check passes on the real results, the traced run is consistent,
  * a perturbed result is counted as a failed op, and Q7's check still
  * fails where the program's known lane-edge defect shows.
  */
object SelfTest {
  /** A world (scenes, seed) on which Q7 meets the lane-edge defect. */
  val LaneEdge: (Int, Long) = (2, 2L)

  def run(): Int = {
    val (scenes, seed) = (2, 7L)
    val spark = JobSession.spark("observebench-selftest")
    val ds    = Scenarios.nuscenes(spark, scenes, seed)
    val tr    = new Tracer(spark.sparkContext)
    val pins  = new PinnedDigests(Main.PinsFile)
    val dir   = Main.RunDir.resolve("selftest")
    var ok = true
    def expect(cond: Boolean, what: String, details: => Seq[String] = Nil): Unit = {
      println(s"${if (cond) "ok  " else "FAIL"} $what")
      if (!cond) details.foreach(d => println(s"     $d"))
      ok &&= cond
    }
    def reasons(rs: Seq[OpRun]) = rs.flatMap(r => r.failures.map(m => s"${r.op.id}: $m"))

    for (w <- Workloads.all.keys.toSeq.sorted) {
      val b    = new Bench(spark, ds, w, seed, scenes, dir, pins, allOps = true)
      val runs = b.ops.map(b.run(_, 0))
      expect(b.ops.forall(op => pins.get((scenes, seed, w, op.id)).isDefined),
        s"$w: every op has a pinned digest")
      expect(!runs.exists(_.failed), s"$w: every op passes its checks", reasons(runs))
      val traced = b.ops.map(b.traced(_, 1, tr))
      expect(!traced.exists(_.failed), s"$w: traced results equal the untraced ones", reasons(traced))
      val cons = b.ops.zip(runs).flatMap { case (op, r) => r.stats.fold(Seq("no stats"))(b.replay(op, tr, _)) }
      expect(cons.isEmpty, s"$w: replayed stage counts equal the untraced stats", cons)

      val bad = new Bench(spark, ds, w, seed, scenes, dir, pins, allOps = true, perturb = true)
      val perturbed = bad.ops.map(bad.run(_, 0))
      expect(perturbed.forall(_.failed), s"$w: a perturbed result fails every op")
      expect(perturbed.forall(_.failures.exists(_.contains("pinned"))),
        s"$w: a perturbed result misses its pinned digest")
      if (w == "spatial-join")
        expect(perturbed.forall(_.failures.exists(_.contains("SQL-free"))),
          s"$w: the SQL-free checker rejects a perturbed result")
    }
    tr.settle()
    def has(layer: String, w: String) =
      tr.spans.exists(s => s.name == layer && Workloads.all(w).exists(op => s.op.startsWith(op.id + "#")))
    expect(!has("SortTracker", "spatial-join") && !has("ExitFrameSampler", "spatial-join"),
      "spatial-join runs neither tracker nor exit frame sampler")
    expect(has("SortTracker", "trajectory") && has("ExitFrameSampler", "trajectory"),
      "trajectory runs the tracker and the exit frame sampler")

    // Known program defect (ROADMAP 4(b)): `geom.Polygon.contains`, the
    // S-Flow meaning of `contains`, counts boundary points as inside; the
    // engine's `st_contains` does not. On this world a camera sits exactly
    // on a lane's edge, so the engine drops Q7 rows that the SQL-free
    // checker keeps. Q7 is not timed for that reason (it would fail on
    // about a third of seeds); this pins the failure so it stays on record.
    // Once the engine is fixed this expectation fails: time Q7 again.
    val (edgeScenes, edgeSeed) = LaneEdge
    val edgeDs = Scenarios.nuscenes(spark, edgeScenes, edgeSeed)
    val edge = new Bench(spark, edgeDs, "spatial-join", edgeSeed, edgeScenes, dir, pins, allOps = true)
    val q7   = edge.run(edge.ops.find(_.id == "Q7").get, 0)
    q7.failures.foreach(m => println(s"     known defect: Q7 scenes=$edgeScenes seed=$edgeSeed: $m"))
    expect(q7.failures.exists(_.contains("SQL-free")),
      s"Q7 (scenes=$edgeScenes, seed=$edgeSeed): the SQL-free checker reports the lane-edge rows " +
        "the engine misses (known defect, ROADMAP 4(b))")
    edgeDs.frames.unpersist(); edgeDs.gtStates.unpersist()
    println(if (ok) "selftest passed" else "selftest FAILED")
    if (ok) 0 else 1
  }
}
