package repro.core

import repro.eval.Instrument
import repro.graph.LocalGraph

/** A candidate community `G0` (re-indexed) with the query indices and the
  * per-vertex butterfly degrees computed during Algorithm 2 — passed to the
  * refinement loop so LP-BCC can reuse the count instead of re-running
  * Algorithm 3.
  */
final case class Candidate(g0: LocalGraph, ql: Int, qr: Int, chi: Array[Long])

/** Driver-side Algorithm 2 (finding the maximal candidate `G0`) and the
  * parameter defaults the paper recommends (k1/k2 = query coreness).
  */
object LocalBCC {

  /** Find the maximal connected (k1,k2,b)-BCC candidate `G0` containing the
    * queries (Algorithm 2): per-label k-core peel, keep the component of
    * each query, bipartite butterfly check, then return the induced
    * candidate as a re-indexed graph plus the queries' new indices.
    */
  def findG0(
      g: LocalGraph,
      qlId: Long,
      qrId: Long,
      params: BCCParams,
      inst: Instrument = new Instrument): Option[Candidate] = {
    val ql = g.indexOf.getOrElse(qlId, return None)
    val qr = g.indexOf.getOrElse(qrId, return None)
    if (g.labels(ql) == g.labels(qr)) return None
    val lLab = g.labels(ql)
    val rLab = g.labels(qr)

    val leftMask = Array.tabulate(g.n)(v => g.labels(v) == lLab)
    val rightMask = Array.tabulate(g.n)(v => g.labels(v) == rLab)
    val leftCore = g.kCoreMask(params.k1, leftMask)
    if (!leftCore(ql)) return None
    val rightCore = g.kCoreMask(params.k2, rightMask)
    if (!rightCore(qr)) return None
    val leftComp = g.componentOf(ql, leftCore)
    val rightComp = g.componentOf(qr, rightCore)

    // butterfly constraint on the bipartite graph between the two components
    // (one Algorithm 3 invocation — counted, like the paper's Table 4 does)
    inst.butterflyCountCalls += 1
    val chi = g.butterflyDegrees(leftComp, rightComp)
    var maxL = 0L; var maxR = 0L
    val keep = new Array[Boolean](g.n)
    var keptCount = 0
    var v = 0
    while (v < g.n) {
      if (leftComp(v) && chi(v) > maxL) maxL = chi(v)
      if (rightComp(v) && chi(v) > maxR) maxR = chi(v)
      if (leftComp(v) || rightComp(v)) { keep(v) = true; keptCount += 1 }
      v += 1
    }
    if (maxL < params.b || maxR < params.b) return None

    // G0 keeps the parent's vertex order: its i-th vertex is the i-th kept one
    val chi0 = new Array[Long](keptCount)
    var ql0 = -1; var qr0 = -1
    var i = 0
    v = 0
    while (v < g.n) {
      if (keep(v)) {
        chi0(i) = chi(v)
        if (v == ql) ql0 = i
        if (v == qr) qr0 = i
        i += 1
      }
      v += 1
    }
    Some(Candidate(g.induced(keep), ql0, qr0, chi0))
  }

  /** Paper default parameters: k1/k2 = coreness of each query within its
    * label-induced subgraph, butterfly threshold `b`.
    */
  def defaultParams(g: LocalGraph, qlId: Long, qrId: Long, b: Int = 1): BCCParams = {
    val ql = g.indexOf(qlId)
    val qr = g.indexOf(qrId)
    def labelCoreness(q: Int): Int = {
      val mask = Array.tabulate(g.n)(v => g.labels(v) == g.labels(q))
      g.coreness(mask)(q)
    }
    BCCParams(math.max(1, labelCoreness(ql)), math.max(1, labelCoreness(qr)), b)
  }
}
