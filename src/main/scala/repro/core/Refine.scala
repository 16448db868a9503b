package repro.core

import scala.collection.immutable.ArraySeq
import repro.graph.LocalGraph

/** The greedy refinement loop of Algorithm 1 with bulk deletion, shared by
  * Online-BCC (naive mode: full BFS + full butterfly recount every round)
  * and LP-BCC (fast mode: Algorithm 5 incremental distances + Algorithm 6/7
  * leader-pair tracking). All methods in the paper use bulk deletion: every
  * vertex at the current maximum query distance is removed per round.
  *
  * The loop snapshots each intermediate graph that is a *connected* valid
  * BCC and finally returns the snapshot with minimum query distance — the
  * 2-approximation argument of Theorem 3.
  */
object Refine {

  sealed trait Mode
  /** Online-BCC: recompute everything from scratch each round. */
  case object Naive extends Mode
  /** LP-BCC: incremental distances + leader-pair butterfly maintenance. */
  case object FastLP extends Mode

  private val Inf = LocalGraph.Inf

  /** Run the loop on a candidate engine whose initial state is a valid
    * (k1,k2,b)-BCC (cores maintained, butterfly constraint satisfiable).
    * Returns None when no connected snapshot containing Q exists.
    */
  def run(e: BCCEngine, mode: Mode, computeDiameter: Boolean = true): Option[BCCResult] = {
    val g = e.g
    val inst = e.inst

    var distL = inst.timeQueryDist(g.bfs(Seq(e.ql), e.alive))
    var distR = inst.timeQueryDist(g.bfs(Seq(e.qr), e.alive))

    // Leader pair setup: one initial full count, then Algorithm 7 updates.
    var lLeft = -1
    var lRight = -1
    if (mode == FastLP) {
      if (!e.chiInitialized) e.fullButterflyCount() // Algorithm 2 usually seeds this
      lLeft = LeaderPair.identify(e, left = true, distL)
      lRight = LeaderPair.identify(e, left = false, distR)
    }

    val batch = new Array[Int](g.n)
    var bestMask: Array[Boolean] = null
    var bestQd = Inf
    var lastDeleted: Seq[Int] = Nil
    var first = true
    var go = true

    var rounds = 0
    while (go) {
      rounds += 1
      inst.rounds += 1
      if (!first) mode match {
        case Naive =>
          distL = inst.timeQueryDist(g.bfs(Seq(e.ql), e.alive))
          distR = inst.timeQueryDist(g.bfs(Seq(e.qr), e.alive))
        case FastLP =>
          inst.timeQueryDist {
            FastDist.update(g, e.alive, distL, lastDeleted)
            FastDist.update(g, e.alive, distR, lastDeleted)
          }
      }
      first = false

      if (distL(e.qr) == Inf) go = false // Q disconnected: no further BCC
      else {
        // query distance per alive vertex (Def. 5, Inf when either side is
        // unreachable); the batch holds the alive vertices at the maximum
        var maxQd = 0
        var batchSize = 0
        var batchHasQuery = false
        var v = 0
        while (v < g.n) {
          if (e.alive(v)) {
            val qd =
              if (distL(v) == Inf || distR(v) == Inf) Inf
              else math.max(distL(v), distR(v))
            if (qd > maxQd) { maxQd = qd; batchSize = 0; batchHasQuery = false }
            if (qd == maxQd) {
              batch(batchSize) = v
              batchSize += 1
              if (v == e.ql || v == e.qr) batchHasQuery = true
            }
          }
          v += 1
        }
        if (maxQd != Inf && maxQd < bestQd) {
          bestMask = e.alive.clone()
          bestQd = maxQd
        }
        if (batchHasQuery) go = false
        else {
          val hook: Int => Unit = mode match {
            case Naive => _ => ()
            case FastLP =>
              v =>
                inst.timeLeaderUpdate {
                  if (lLeft >= 0) LeaderPair.updateOnDeletion(e, lLeft, v)
                  if (lRight >= 0) LeaderPair.updateOnDeletion(e, lRight, v)
                }
          }
          e.deleteCascade(ArraySeq.unsafeWrapArray(batch.take(batchSize)), hook) match {
            case None => go = false // a query vertex was peeled
            case Some(removed) =>
              lastDeleted = removed
              mode match {
                case Naive =>
                  e.fullButterflyCount()
                  if (e.maxChi(true) < e.params.b || e.maxChi(false) < e.params.b)
                    go = false
                case FastLP =>
                  val leadersOk =
                    lLeft >= 0 && e.alive(lLeft) && e.chi(lLeft) >= e.params.b &&
                      lRight >= 0 && e.alive(lRight) && e.chi(lRight) >= e.params.b
                  if (!leadersOk) {
                    e.fullButterflyCount()
                    if (e.maxChi(true) < e.params.b || e.maxChi(false) < e.params.b)
                      go = false
                    else {
                      lLeft = LeaderPair.identify(e, left = true, distL)
                      lRight = LeaderPair.identify(e, left = false, distR)
                    }
                  }
              }
          }
        }
      }
    }

    Option(bestMask).map { mask =>
      val ids = (0 until g.n).iterator.filter(mask).map(g.ids).toSet
      val diam = if (computeDiameter) g.diameter(mask) else -1
      BCCResult(ids, e.leftLabel, e.rightLabel, bestQd, diam, rounds)
    }
  }
}
