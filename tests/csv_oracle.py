"""Per-row CSV writers, kept as a test oracle for the CLI's chunked writer.

Before the CLI formatted its CSV outputs a chunk of rows at a time, each
output wrote one row per loop iteration and each value through ``repr``.
These are those loops, writing to an open text handle; every CLI output
must reproduce their bytes.
"""


def field_csv(handle, centers, columns, header, provenance_line):
    """``eval`` (points and ``--grid``) and ``fit --grid``."""
    handle.write(provenance_line + "\n")
    handle.write(header + "\n")
    for i in range(centers.shape[0]):
        coords = ",".join(repr(float(c)) for c in centers[i])
        vals = ",".join(repr(float(col[i])) for col in columns)
        handle.write(f"{coords},{vals}\n")


def wavelet_table(handle, family, head):
    """``wavelet-table``; ``head`` is its provenance line."""
    step = 2.0 ** -family.dyadic_resolution
    handle.write(head + "\n")
    handle.write("x,phi,psi\n")
    for i in range(family.father_table.size):
        handle.write(
            f"{repr(i * step)},{repr(float(family.father_table[i]))},"
            f"{repr(float(family.mother_table[i]))}\n"
        )


def knn_audit(handle, radii, volumes, head):
    """``check knn``; ``head`` is its provenance line."""
    handle.write(head + "\n")
    handle.write("index,radius,volume\n")
    for i in range(radii.shape[0]):
        handle.write(f"{i},{repr(float(radii[i]))},{repr(float(volumes[i]))}\n")
