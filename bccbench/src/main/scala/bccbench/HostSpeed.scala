package bccbench

/** A fixed piece of graph work that does not use the program under test:
  * BFS from 10 sources over a fixed random graph, each followed by a Scala
  * hash set of the vertices it reached. It runs the same kind of code as the
  * program (array walks, boxing, hashing), so its time tracks how fast the
  * host is running such code at the moment.
  */
object HostSpeed {
  private val N = 20000
  private val adj: Array[Array[Int]] = {
    val r = new scala.util.Random(7)
    Array.fill(N)(Array.fill(8)(r.nextInt(N)))
  }
  private var sink = 0L

  private def work(): Int = {
    val dist = new Array[Int](N)
    val queue = new Array[Int](N)
    var acc = 0
    for (src <- 0 until N by N / 10) {
      java.util.Arrays.fill(dist, -1)
      dist(src) = 0; queue(0) = src
      var head = 0; var tail = 1
      while (head < tail) {
        val v = queue(head); head += 1
        val ns = adj(v)
        var i = 0
        while (i < ns.length) {
          val u = ns(i)
          if (dist(u) < 0) { dist(u) = dist(v) + 1; queue(tail) = u; tail += 1 }
          i += 1
        }
      }
      val reached = scala.collection.mutable.HashSet[Int]()
      for (k <- 0 until tail) reached += queue(k)
      acc += reached.size
    }
    acc
  }

  /** Wall time of one run of the fixed work, in ms. */
  def ms(): Double = {
    val t0 = System.nanoTime()
    sink += work()
    (System.nanoTime() - t0) / 1e6
  }
}
