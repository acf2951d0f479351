from aimrom.svg import Series, line_plot


def test_line_plot_escapes_markup_and_keeps_its_comment_well_formed():
    svg = line_plot([Series([0.0, 1.0], [0.0, 1.0], "a<b & c>d")], title="T -- <x> & y",
                    x_label="x > 0", y_label="y < 1", provenance="cfg --seed <1> & more")
    lines = svg.splitlines()
    assert lines[1] == "<!-- provenance: cfg - -seed &lt;1&gt; &amp; more -->"
    assert lines[-5:] == [
        '<text x="504.00" y="48.00">a&lt;b &amp; c&gt;d</text>',
        '<text x="320.00" y="20" text-anchor="middle" font-size="14">'
        "T -- &lt;x&gt; &amp; y</text>",
        '<text x="344.00" y="390.00" text-anchor="middle">x &gt; 0</text>',
        '<text x="16" y="194.00" text-anchor="middle" '
        'transform="rotate(-90 16 194.00)">y &lt; 1</text>',
        "</svg>",
    ]
