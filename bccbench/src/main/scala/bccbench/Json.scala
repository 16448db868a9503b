package bccbench

/** Minimal JSON encoder for the benchmark's raw output line. */
object Json {
  def apply(x: Any): String = x match {
    case null                       => "null"
    case s: String                  => quote(s)
    case b: Boolean                 => b.toString
    case d: Double                  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int                     => i.toString
    case l: Long                    => l.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, v) => quote(k.toString) + ":" + apply(v) }.mkString("{", ",", "}")
    case s: Iterable[_]             => s.map(apply).mkString("[", ",", "]")
    case other                      => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
