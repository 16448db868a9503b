package bccbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** Groups the Spark work of traced calls by the source file of each job's
  * call site: a job named `count at KCore.scala:31` is charged to `KCore`.
  * Only jobs started while the calling thread carries the [[SparkFiles.Tag]]
  * local property are counted (Spark passes it on to the threads that run
  * the call's jobs).
  */
final class SparkFiles extends SparkListener {

  final class Acc {
    var jobs = 0L; var stages = 0L; var tasks = 0L; var taskMs = 0L; var shuffleBytes = 0L
  }

  private val byFile = mutable.Map[String, Acc]()
  private val stageFile = mutable.Map[Int, String]()
  /** SQL execution id -> call site file. Jobs that adaptive execution
    * submits from its own threads carry the execution id, not the call site.
    */
  private val executionFile = mutable.Map[Long, String]()

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart =>
      synchronized { executionFile(s.executionId) = SparkFiles.fileOf(s.description) }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tagged = e.properties != null && e.properties.getProperty(SparkFiles.Tag) != null
    if (tagged && e.stageInfos.nonEmpty) {
      val execution = Option(e.properties.getProperty("spark.sql.execution.id")).map(_.toLong)
      val f = execution.flatMap(executionFile.get)
        .getOrElse(SparkFiles.fileOf(e.stageInfos.maxBy(_.stageId).name))
      byFile.getOrElseUpdate(f, new Acc).jobs += 1
      e.stageInfos.foreach(s => stageFile(s.stageId) = f)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageFile.remove(e.stageInfo.stageId).foreach { f =>
      val a = byFile.getOrElseUpdate(f, new Acc)
      a.stages += 1
      a.tasks += e.stageInfo.numTasks
      val m = e.stageInfo.taskMetrics
      if (m != null) {
        a.taskMs += m.executorRunTime
        a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Runs `f` tagged, then returns its per-file totals once every event of
    * its jobs has been delivered.
    */
  def measure[T](sc: SparkContext)(f: => T): (T, Map[String, Acc]) = {
    synchronized { byFile.clear(); stageFile.clear(); executionFile.clear() }
    sc.setLocalProperty(SparkFiles.Tag, "1")
    val r = try f finally sc.setLocalProperty(SparkFiles.Tag, null)
    org.apache.spark.BccBenchBus.drain(sc)
    synchronized { (r, byFile.toMap) }
  }
}

object SparkFiles {
  val Tag = "bccbench.traced"

  /** The program files whose Spark jobs are reported one by one. A job is
    * charged to the file whose action runs it, so the butterfly count that
    * `ButterflyCount` defines is charged to `FindG0`, which materialises it.
    */
  val Files: Seq[String] = Seq("FindG0", "KCore", "ConnectedComponents", "LabeledGraph")

  /** `count at KCore.scala:31` -> `KCore`. */
  def fileOf(callSite: String): String = {
    val at = callSite.lastIndexOf(" at ")
    val loc = if (at >= 0) callSite.substring(at + 4) else callSite
    loc.takeWhile(_ != ':').stripSuffix(".scala").stripSuffix(".java")
  }
}
