package repro.eval

/** Mutable counters and timers threaded through a single BCC search.
  *
  * Reproduces the columns of the paper's Table 4: query-distance time,
  * leader-pair update time, number of full butterfly-counting invocations
  * (Algorithm 3 calls), and total time.
  */
final class Instrument {
  var butterflyCountCalls: Int = 0
  var queryDistNanos: Long = 0L
  var leaderUpdateNanos: Long = 0L
  var butterflyCountNanos: Long = 0L
  var totalNanos: Long = 0L
  var rounds: Int = 0

  // `finally` also records a call that leaves early, e.g. by a non-local
  // `return` out of the timed block
  def timeQueryDist[T](f: => T): T = { val t0 = System.nanoTime(); try f finally queryDistNanos += System.nanoTime() - t0 }
  def timeLeaderUpdate[T](f: => T): T = { val t0 = System.nanoTime(); try f finally leaderUpdateNanos += System.nanoTime() - t0 }
  def timeButterflyCount[T](f: => T): T = { val t0 = System.nanoTime(); try f finally butterflyCountNanos += System.nanoTime() - t0 }
  def timeTotal[T](f: => T): T = { val t0 = System.nanoTime(); try f finally totalNanos += System.nanoTime() - t0 }

  def add(other: Instrument): Unit = {
    butterflyCountCalls += other.butterflyCountCalls
    queryDistNanos += other.queryDistNanos
    leaderUpdateNanos += other.leaderUpdateNanos
    butterflyCountNanos += other.butterflyCountNanos
    totalNanos += other.totalNanos
    rounds += other.rounds
  }

  def queryDistSec: Double = queryDistNanos / 1e9
  def leaderUpdateSec: Double = leaderUpdateNanos / 1e9
  def butterflyCountSec: Double = butterflyCountNanos / 1e9
  def totalSec: Double = totalNanos / 1e9
}
