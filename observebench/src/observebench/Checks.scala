package observebench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.jdk.CollectionConverters._
import scala.util.hashing.MurmurHash3

import repro.sflow._
import repro.world.RoadNetwork

/** Result digest of one op: engine row count, output count (snippets or
  * objects) and order-independent 64-bit hashes of both, as hex.
  */
final case class Digest(rows: Long, out: Long, rowsHash: String, outHash: String) {
  override def toString: String = s"rows=$rows out=$out rowsHash=$rowsHash outHash=$outHash"
}

object Digest {
  private def h64(s: String): Long =
    (MurmurHash3.stringHash(s, 0x9747b28c).toLong << 32) |
      (MurmurHash3.stringHash(s, 0x5bd1e995).toLong & 0xffffffffL)

  /** Sum of per-line hashes: independent of the order rows arrive in. */
  def hash(lines: Iterable[String]): String = f"${lines.foldLeft(0L)(_ + h64(_))}%016x"

  def of(rows: Seq[String], out: Seq[String]): Digest =
    Digest(rows.size, out.size, hash(rows), hash(out))
}

/** Digests pinned per (scenes, seed, workload, op) in a tab-separated file,
  * so a later change can be rechecked against the results it started from.
  */
final class PinnedDigests(path: Path) {
  type Key = (Int, Long, String, String)

  private var pins: Map[Key, Digest] =
    if (!Files.isRegularFile(path)) Map.empty
    else Files.readAllLines(path).asScala.iterator.map(_.trim)
      .filter(l => l.nonEmpty && !l.startsWith("#"))
      .map { l =>
        val f = l.split("\t")
        (f(0).toInt, f(1).toLong, f(2), f(3)) -> Digest(f(4).toLong, f(5).toLong, f(6), f(7))
      }.toMap

  def get(k: Key): Option[Digest] = pins.get(k)

  def pin(k: Key, d: Digest): Unit = pins += k -> d

  def save(): Unit = {
    val header = "# scenes\tseed\tworkload\top\trows\tout\trowsHash\toutHash"
    val lines = pins.toSeq.sortBy { case (k, _) => (k._1, k._2, k._3, k._4) }.map {
      case ((sc, seed, w, op), d) => s"$sc\t$seed\t$w\t$op\t${d.rows}\t${d.out}\t${d.rowsHash}\t${d.outHash}"
    }
    Files.write(path, (header +: lines).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** SQL-free reference evaluation of conjunctive type / `contains` /
  * distance predicates, by brute force per frame over the collected
  * Movable Objects, the camera positions and the road network's
  * `geom.Polygon`s. It shares nothing with the SQL generator, so the
  * query engine's rows are compared against an independent answer.
  */
object SpatialChecker {
  final case class Obj(oid: Long, otype: String, x: Double, y: Double)

  private def dist(a: (Double, Double), b: (Double, Double)): Double = {
    val dx = a._1 - b._1; val dy = a._2 - b._2
    math.sqrt(dx * dx + dy * dy)
  }

  /** Expected engine rows as "sceneId,frameIdx,oid1,...,oidk", one per
    * assignment of distinct objects to the predicate's object references.
    */
  def expected(pred: Pred, objs: Seq[(Long, Int, Obj)],
               cams: Map[(Long, Int), (Double, Double)], net: RoadNetwork): Set[String] = {
    val cs   = Pred.conjuncts(pred)
    val refs = Pred.objRefs(pred).toVector
    val geos = Pred.geoRefs(pred).toVector
    def point(t: Term): Unit = t match {
      case _: ObjRef | CamRef =>
      case other => throw new UnsupportedOperationException(s"checker: term $other")
    }
    cs.foreach {
      case _: TypeIs             =>
      case Contains(_, ts)       => ts.foreach(point)
      case DistanceLt(a, b, _)   => point(a); point(b)
      case other => throw new UnsupportedOperationException(s"checker: predicate $other")
    }
    require(refs.nonEmpty, "checker: the predicate must mention an object")
    val constructs = geos.map(_.geoType).distinct.map(t => t -> net.ofType(t)).toMap
    val termsOf    = geos.map(g => g -> cs.collect { case Contains(`g`, ts) => ts }.flatten).toMap

    val out = Set.newBuilder[String]
    objs.groupBy(o => (o._1, o._2)).foreach { case ((sid, f), rows) =>
      val cam = cams((sid, f))
      // Brute force: every construct of the type is tested, once per point.
      val insideMemo = scala.collection.mutable.Map.empty[(Any, String), Set[Long]]
      def inside(key: Any, p: (Double, Double), t: String): Set[Long] =
        insideMemo.getOrElseUpdate((key, t),
          constructs(t).iterator.filter(_.polygon.contains(p._1, p._2)).map(_.rid).toSet)
      def pos(t: Term, a: Map[ObjRef, Obj]): (Double, Double) = t match {
        case CamRef    => cam
        case o: ObjRef => (a(o).x, a(o).y)
        case g         => throw new IllegalStateException(s"$g has no point")
      }
      def insideOf(t: Term, g: GeoRef, a: Map[ObjRef, Obj]): Set[Long] = t match {
        case CamRef    => inside("camera", cam, g.geoType)
        case o: ObjRef => inside(a(o).oid, pos(o, a), g.geoType)
        case other     => throw new IllegalStateException(s"$other has no point")
      }
      def holds(a: Map[ObjRef, Obj]): Boolean =
        cs.forall {
          case TypeIs(o, ts)       => ts.contains(a(o).otype)
          case DistanceLt(x, y, d) => dist(pos(x, a), pos(y, a)) < d
          case _                   => true
        } && geos.forall(g => termsOf(g).map(t => insideOf(t, g, a)).reduce(_ intersect _).nonEmpty)

      // Necessary conditions per reference, to keep the enumeration small.
      val frameObjs = rows.map(_._3)
      val cands = refs.map { r =>
        frameObjs.filter { o =>
          val a = Map(r -> o)
          cs.forall {
            case TypeIs(`r`, ts) => ts.contains(o.otype)
            case DistanceLt(x, y, d) if Set[Term](x, y).subsetOf(Set[Term](r, CamRef)) =>
              dist(pos(x, a), pos(y, a)) < d
            case _ => true
          } && geos.forall(g => !termsOf(g).contains(r) || insideOf(r, g, a).nonEmpty)
        }
      }
      def assign(i: Int, chosen: Vector[Obj]): Unit =
        if (i == refs.size) {
          if (holds(refs.zip(chosen).toMap)) out += (Seq(sid, f) ++ chosen.map(_.oid)).mkString(",")
        } else cands(i).foreach { o =>
          if (!chosen.exists(_.oid == o.oid)) assign(i + 1, chosen :+ o)
        }
      assign(0, Vector.empty)
    }
    out.result()
  }
}

/** Independent re-derivations of what the output composer returns. */
object Expect {
  /** Snippets ("sceneId,start,end") from result rows whose first two
    * fields are sceneId and frameIdx: frames of a scene further apart than
    * `mergeGap` + 1 start a new snippet.
    */
  def snippets(rows: Seq[String], mergeGap: Int = 12): Seq[String] = {
    val frames = rows.map { r => val f = r.split(","); (f(0).toLong, f(1).toInt) }.distinct
    frames.groupBy(_._1).toSeq.sortBy(_._1).flatMap { case (sid, fs) =>
      val sorted = fs.map(_._2).sorted
      val starts = sorted.indices.filter(i => i == 0 || sorted(i) - sorted(i - 1) > mergeGap + 1)
      starts.zip(starts.drop(1).map(_ - 1) :+ (sorted.size - 1)).map { case (a, b) =>
        s"$sid,${sorted(a)},${sorted(b)}"
      }
    }
  }

  /** Snippets read back from a saved manifest. */
  def manifest(path: Path): Seq[String] = {
    val num = "\"(\\w+)\":\\s*(-?\\d+)".r
    Files.readAllLines(path).asScala.toSeq.filter(_.trim.nonEmpty).map { l =>
      val m = num.findAllMatchIn(l).map(x => x.group(1) -> x.group(2)).toMap
      s"${m("sceneId")},${m("startFrame")},${m("endFrame")}"
    }
  }
}
