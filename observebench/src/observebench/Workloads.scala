package observebench

import repro.core.PlanConfig
import repro.exp.AblationExperiment
import repro.sflow.{Queries, Query}

/** How an op observes the world. */
sealed trait Output
/** `saveVideos`: snippet manifests. */
case object SaveVideos extends Output
/** `getObjects`: the matched Movable Objects, collected. */
case object GetObjects extends Output

/** One benchmark operation: a public observe call on a built world. */
final case class Op(id: String, query: Query, plan: String, output: Output) {
  def config: PlanConfig = Workloads.Plans(plan)
}

/** The two workloads. A timed pass runs a workload's `timed` ops; the
  * self-test and digest pinning also run its `extra` ops (the rest of the
  * workload's queries or plans). An observe call costs seconds even on a
  * few scenes (it runs 30–46 Spark jobs), so a pass holds two ops.
  */
object Workloads {
  val Plans: Map[String, PlanConfig] = AblationExperiment.Setups.toMap

  private def s6(qs: Seq[Query], out: Output) = qs.map(q => Op(q.name, q, "S6", out))
  private def q2(plans: Seq[String]) = plans.map(p => Op(s"Q2-$p", Queries.q2, p, SaveVideos))

  private val defs: Map[String, (Seq[Op], Seq[Op])] = Map(
    // Tracking query through saveVideos, with every optimization (S6: RVP
    // prunes frames, OTP and GE apply, EFS engages, the tracker runs) and
    // with none (SB: every frame and detection goes through the ML
    // estimator and the tracker). Extra: Q1/Q9 (pedestrians, EFS off), Q3
    // (RVP prunes nothing), and Q2 under Table 3's plans S4 and S5.
    "trajectory" -> (q2(Seq("S6", "SB")),
                     s6(Seq(Queries.q1, Queries.q3, Queries.q9), SaveVideos) ++ q2(Seq("S4", "S5"))),
    // Detection-only EVA queries through getObjects: no tracker, no EFS.
    // Q5 joins pedestrians with the intersections, Q6 is the self-join of
    // car pairs at an intersection; the composer joins back to the objects.
    // Extra: Q7 and Q8, the lane queries. Q7 fails its SQL-free check on
    // about a third of seeds: where the camera sits exactly on a lane's
    // edge, `geom.Polygon` counts it as inside and the engine's
    // `st_contains` does not (ROADMAP 4(b)). A timed op must pass on every
    // seed, so the self-test pins that failure instead. Q8's triple
    // self-join grows with the cube of cars per frame: with it, a run
    // outlasts its share of the time budget and swings with the seed.
    "spatial-join" -> (s6(Seq(Queries.q5, Queries.q6), GetObjects),
                       s6(Seq(Queries.q7, Queries.q8), GetObjects)))

  val all: Map[String, Seq[Op]]   = defs.map { case (w, (timed, _)) => w -> timed }
  val extra: Map[String, Seq[Op]] = defs.map { case (w, (_, more)) => w -> more }
}
