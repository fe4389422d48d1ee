package obs

import "strings"

// SplitLabels separates a canonical labeled name, name{key="value",...},
// into its base name and label body (without braces). Labeled names index
// the registry as ordinary strings — each label combination is its own
// series — and the Prometheus renderer splits the label body back out so the
// base name stays one metric family. Unlabeled names return the name
// unchanged with an empty label body.
func SplitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}
