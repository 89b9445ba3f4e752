// Package other sits outside the floatcompare scope; exact float
// equality is permitted here (and maporder's return sink does not apply).
package other

func Exact(a, b float64) bool {
	return a == b
}

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
