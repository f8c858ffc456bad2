package org.apache.spark

/** The driver's listener bus is package-private in Spark; the benchmark
  * waits on it so every posted job and task event is counted before the
  * counters are read.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
