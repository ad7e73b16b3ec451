// Package stale declares two of the four hot roots that name it. The
// wildcard root matches whatever exists; the two exact roots naming
// functions the package does not declare (left behind by a rename) must
// be reported, not silently match nothing.
package stale // want `hot root stale\.Gone names no function declared in package stale` `hot root stale\.Server\.Missing names no function declared in package stale`

type Server struct{}

func (Server) Handle(n int) int { return n }

func Serve(n int) int { return n + 1 }
