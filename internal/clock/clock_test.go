package clock

import "testing"

func TestWallAdvances(t *testing.T) {
	c := Wall()
	t0 := c.Now()
	if since := c.Since(t0); since < 0 {
		t.Fatalf("wall clock ran backwards: %v", since)
	}
}
