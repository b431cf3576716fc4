package core

import "fmt"

// nameCache interns the LP row and column names ("y[j,i,l]", "assign[j]",
// "cap[i,l]") that buildLP would otherwise fmt.Sprintf afresh every pass.
// Only a WarmCache holds one: names exist so that a warm basis can be
// resolved onto a later problem whose indices shifted. A nil *nameCache
// names nothing — every row and column gets the empty name, and the build
// formats no strings — which is how the per-slot online path, which never
// warm starts, builds. Like the WarmCache that holds it, a table belongs
// to one scheduling goroutine.
type nameCache struct {
	y  map[[3]int32]string
	as map[int32]string
	cp map[[2]int32]string
}

// fits reports whether the indices can be packed into the cache's int32
// keys; out-of-range indices (never seen in practice) format directly.
func fits(vals ...int) bool {
	for _, v := range vals {
		if v < 0 || v > 1<<30 {
			return false
		}
	}
	return true
}

func (c *nameCache) yName(j, i, l int) string {
	if c == nil {
		return ""
	}
	if !fits(j, i, l) {
		return fmt.Sprintf("y[%d,%d,%d]", j, i, l)
	}
	k := [3]int32{int32(j), int32(i), int32(l)}
	s, ok := c.y[k]
	if !ok {
		if c.y == nil {
			c.y = make(map[[3]int32]string)
		}
		s = fmt.Sprintf("y[%d,%d,%d]", j, i, l)
		c.y[k] = s
	}
	return s
}

func (c *nameCache) assignName(j int) string {
	if c == nil {
		return ""
	}
	if !fits(j) {
		return fmt.Sprintf("assign[%d]", j)
	}
	k := int32(j)
	s, ok := c.as[k]
	if !ok {
		if c.as == nil {
			c.as = make(map[int32]string)
		}
		s = fmt.Sprintf("assign[%d]", j)
		c.as[k] = s
	}
	return s
}

func (c *nameCache) capName(i, l int) string {
	if c == nil {
		return ""
	}
	if !fits(i, l) {
		return fmt.Sprintf("cap[%d,%d]", i, l)
	}
	k := [2]int32{int32(i), int32(l)}
	s, ok := c.cp[k]
	if !ok {
		if c.cp == nil {
			c.cp = make(map[[2]int32]string)
		}
		s = fmt.Sprintf("cap[%d,%d]", i, l)
		c.cp[k] = s
	}
	return s
}
