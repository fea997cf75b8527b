package openflow

// FieldByName returns the field with the given OpenFlow name.
func FieldByName(name string) (Field, bool) {
	for i, n := range fieldNames {
		if n == name {
			return Field(i), true
		}
	}
	return 0, false
}

// IsExact reports whether field f is constrained with a full (exact) mask.
func (m *Match) IsExact(f Field) bool {
	_, mask, ok := m.Get(f)
	return ok && mask == f.FullMask()
}
