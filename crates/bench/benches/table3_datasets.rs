//! Table 3: dataset characteristics. Prints the paper's six rows together
//! with a note on the synthetic stand-ins used at bench scale.

use keystone_bench::{print_table, save_json};
use keystone_workloads::paper_datasets;

fn main() {
    let cards = paper_datasets();
    let rows: Vec<Vec<String>> = cards
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{}", c.num_train),
                format!("{:.2}", c.train_gb),
                format!("{}", c.classes),
                format!("{}", c.solve_features),
                format!("{:.4}", c.solve_density),
                format!("{:.1}", c.solve_gb),
            ]
        })
        .collect();
    print_table(
        "Table 3: dataset characteristics (paper scale)",
        &[
            "dataset", "n_train", "raw GB", "classes", "solve d", "density", "solve GB",
        ],
        &rows,
    );
    save_json("table3_datasets", &rows);

    println!(
        "\nSynthetic stand-ins keep the n/d/sparsity/class shape at configurable scale:\n\
         AmazonLike (Zipf text, 2 classes, sparse features), TimitLike (dense clustered\n\
         vectors, 147 classes), ImageDatasetSpec (texture classes, VOC/ImageNet/CIFAR)."
    );
}
