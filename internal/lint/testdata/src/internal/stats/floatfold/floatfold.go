// Package floatfold sums map values. Float addition is not associative,
// so a float sum taken in map-iteration order changes its low bits from
// run to run; an integer sum is exact in any order.
package floatfold

func FloatTotal(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum // line 11: order-dependent bits returned
}

func IntTotal(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
