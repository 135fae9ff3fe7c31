package batch

import (
	"math/rand"
	"testing"
	"time"
)

func TestSamplers(t *testing.T) {
	if Constant(5*time.Second).Next() != 5*time.Second {
		t.Error("constant sampler wrong")
	}
	u := &Uniform{Min: 10, Max: 20, Rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 100; i++ {
		d := u.Next()
		if d < 10 || d > 20 {
			t.Fatalf("uniform sample %v out of range", d)
		}
	}
	if (&Uniform{Min: 7, Max: 7}).Next() != 7 {
		t.Error("degenerate uniform should return the point")
	}
	e := NewExponential(time.Second, 3)
	var sum time.Duration
	for i := 0; i < 2000; i++ {
		d := e.Next()
		if d < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += d
	}
	mean := sum / 2000
	if mean < 800*time.Millisecond || mean > 1200*time.Millisecond {
		t.Errorf("exponential mean = %v, want ≈1s", mean)
	}
	if NewExponential(0, 1).Next() != 0 {
		t.Error("zero-mean exponential should return 0")
	}
}

func TestSamplerDeterminism(t *testing.T) {
	a, b := NewExponential(time.Second, 42), NewExponential(time.Second, 42)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same sequence")
		}
	}
}
