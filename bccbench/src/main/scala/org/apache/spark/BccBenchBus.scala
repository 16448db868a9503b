package org.apache.spark

/** Waits for Spark's listener bus to deliver every queued event, so the
  * benchmark's listener has seen all work of a call before it is read.
  * The bus is private to the `org.apache.spark` package, hence this file.
  */
object BccBenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
