package graph

// Components labels the connected components of a. It returns a label
// vector (labels are 0..count-1, assigned in order of lowest-numbered
// member) and the number of components.
func Components(a Und) (label []int, count int) {
	return ComponentsExcluding(a, -1)
}

// IsConnected reports whether a is connected (true for n <= 1).
func IsConnected(a Und) bool {
	if len(a) <= 1 {
		return true
	}
	_, c := Components(a)
	return c == 1
}

// ComponentsExcluding labels the components of the graph a with vertex u
// deleted (u < 0 deletes nothing). For u ≥ 0, label[u] is -1 and count
// ignores u.
// This is the quantity needed to evaluate the component term of a
// deviating player's cost: whatever strategy S player u picks, the
// component count of the deviated graph is
//
//	count - distinct(labels of In(u) ∪ S) + 1.
func ComponentsExcluding(a Und, u int) (label []int, count int) {
	n := len(a)
	label = make([]int, n)
	for i := range label {
		label[i] = -1
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if s == u || label[s] >= 0 {
			continue
		}
		label[s] = count
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			w := queue[head]
			for _, v := range a[w] {
				if v != u && label[v] < 0 {
					label[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return label, count
}

// CountComponentsTouched returns the number of distinct component labels
// among the vertices in the given groups, skipping entries equal to skip
// and ignoring repeats. seen must be a reusable buffer of length >= count
// with all entries false; it is cleaned before return.
func CountComponentsTouched(label []int, seen []bool, skip int, groups ...[]int) int {
	d := 0
	var touched []int
	for _, g := range groups {
		for _, v := range g {
			if v == skip {
				continue
			}
			l := label[v]
			if l < 0 || seen[l] {
				continue
			}
			seen[l] = true
			touched = append(touched, l)
			d++
		}
	}
	for _, l := range touched {
		seen[l] = false
	}
	return d
}
